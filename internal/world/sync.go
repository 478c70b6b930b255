package world

import "ntpscan/internal/rng"

// SampleClient draws one NTP client from a country's syncing population,
// weighted by per-profile sync frequency. It returns nil when the
// country has no NTP clients. Eager worlds only — lazy worlds draw an
// ID with SampleClientID and resolve it through a Materializer, which
// consumes exactly the same stream draws.
func (w *World) SampleClient(country string, r *rng.Stream) *Device {
	gid := w.SampleClientID(country, r)
	if gid < 0 {
		return nil
	}
	return w.Devices[gid]
}

// ResponsiveNTP returns every scan-reachable NTP-client device — the
// population whose capture the collection driver guarantees (their sync
// cadence over four weeks makes at least one hit on a vantage server
// overwhelmingly likely; see DESIGN.md). Available in lazy worlds: the
// reachable population is always resident.
func (w *World) ResponsiveNTP() []*Device {
	var out []*Device
	for _, d := range w.reachable {
		if d.role == RoleResponsive && d.Profile.NTPClient {
			out = append(out, d)
		}
	}
	return out
}

// Country returns the generated country by code.
func (w *World) Country(code string) (*Country, bool) {
	for _, c := range w.Countries {
		if c.Spec.Code == code {
			return c, true
		}
	}
	return nil, false
}
