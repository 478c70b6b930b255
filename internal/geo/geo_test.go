package geo

import (
	"net/netip"
	"testing"
)

func TestAddCountryAndLookup(t *testing.T) {
	d := NewDB()
	d.AddCountry(Country{Code: "DE", Name: "Germany", RoutedV6: 10, PoolServers: 50})
	c, ok := d.Country("DE")
	if !ok || c.Name != "Germany" {
		t.Fatalf("Country = %+v %v", c, ok)
	}
	if _, ok := d.Country("XX"); ok {
		t.Fatal("unknown country resolved")
	}
}

func TestLocateLongestMatch(t *testing.T) {
	d := NewDB()
	d.MapPrefix(netip.MustParsePrefix("2001:db8::/32"), "DE")
	d.MapPrefix(netip.MustParsePrefix("2001:db8:1::/48"), "NL")
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:1::1")); !ok || code != "NL" {
		t.Fatalf("Locate = %q %v", code, ok)
	}
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:2::1")); !ok || code != "DE" {
		t.Fatalf("Locate = %q %v", code, ok)
	}
	if _, ok := d.Locate(netip.MustParseAddr("2001:dead::1")); ok {
		t.Fatal("unmapped space located")
	}
}

func TestCountriesSorted(t *testing.T) {
	d := NewDB()
	for _, c := range []string{"ZA", "AU", "JP"} {
		d.AddCountry(Country{Code: c})
	}
	cs := d.Countries()
	if cs[0].Code != "AU" || cs[1].Code != "JP" || cs[2].Code != "ZA" {
		t.Fatalf("order: %v %v %v", cs[0].Code, cs[1].Code, cs[2].Code)
	}
}

func TestMapPrefixMasksHostBits(t *testing.T) {
	d := NewDB()
	d.MapPrefix(netip.PrefixFrom(netip.MustParseAddr("2001:db8::1"), 32), "JP")
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:ffff::2")); !ok || code != "JP" {
		t.Fatalf("Locate after unmasked MapPrefix = %q %v", code, ok)
	}
}
