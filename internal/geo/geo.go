// Package geo provides the geolocation substrate: a GeoLite2-equivalent
// prefix→country database and a country registry carrying the statistics
// the paper's vantage-point selection uses (§3.1: deploy NTP servers in
// countries with few existing pool servers relative to their routed IPv6
// address space).
package geo

import (
	"net/netip"
	"sort"
)

// Country is one country record with the metrics relevant to vantage
// selection.
type Country struct {
	Code string // ISO 3166-1 alpha-2
	Name string
	// RoutedV6 is the relative amount of routed IPv6 address space
	// (arbitrary units; only ratios matter).
	RoutedV6 float64
	// PoolServers is the number of NTP Pool servers already serving the
	// country's zone before our deployment.
	PoolServers int
	// Population is the relative number of IPv6-active client devices.
	Population float64
}

// DB is the combined country registry and prefix→country mapping.
type DB struct {
	countries map[string]*Country
	tables    map[int]map[netip.Prefix]string
	lengths   []int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		countries: make(map[string]*Country),
		tables:    make(map[int]map[netip.Prefix]string),
	}
}

// AddCountry registers a country record.
func (d *DB) AddCountry(c Country) *Country {
	stored := c
	d.countries[c.Code] = &stored
	return &stored
}

// Country returns a registered country.
func (d *DB) Country(code string) (*Country, bool) {
	c, ok := d.countries[code]
	return c, ok
}

// Countries returns all registered countries sorted by code.
func (d *DB) Countries() []*Country {
	out := make([]*Country, 0, len(d.countries))
	for _, c := range d.countries {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// MapPrefix assigns all addresses under p to a country, GeoLite2-style.
func (d *DB) MapPrefix(p netip.Prefix, code string) {
	p = p.Masked()
	bits := p.Bits()
	tbl, ok := d.tables[bits]
	if !ok {
		tbl = make(map[netip.Prefix]string)
		d.tables[bits] = tbl
		d.lengths = append(d.lengths, bits)
		sort.Sort(sort.Reverse(sort.IntSlice(d.lengths)))
	}
	tbl[p] = code
}

// Locate returns the country code for addr via longest prefix match.
func (d *DB) Locate(addr netip.Addr) (string, bool) {
	for _, bits := range d.lengths {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if code, ok := d.tables[bits][p]; ok {
			return code, true
		}
	}
	return "", false
}
