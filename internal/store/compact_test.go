package store

import (
	"net/netip"
	"testing"

	"ntpscan/internal/zgrab"
)

// sliceRows builds slice sl's rows. Some carry grab strings with
// invalid UTF-8, which encoding/json writes as � and reads back
// as U+FFFD, and some use IPv4 or zoned addresses, which the segment
// stores as 16 bytes: the row shapes where a held row and its decoded
// copy differ.
func sliceRows(sl, n int) ([]CaptureRow, []*zgrab.Result) {
	var cs []CaptureRow
	var rs []*zgrab.Result
	for i := 0; i < n; i++ {
		cs = append(cs, testCapture(sl*n+i))
		r := testResult(sl*n+i, sl)
		switch i % 7 {
		case 1:
			r.HTTP = &zgrab.HTTPGrab{StatusCode: 200, Title: "caf\xe9 <menu>", Server: "\xff"}
		case 2:
			r.IP = netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
			cs[i].Addr = r.IP
		case 3:
			r.IP = r.IP.WithZone("eth0")
		}
		rs = append(rs, r)
	}
	return cs, rs
}

// appendRows appends slices [lo, hi) of sliceRows to s.
func appendRows(t *testing.T, s *Store, lo, hi int) {
	t.Helper()
	for sl := lo; sl < hi; sl++ {
		cs, rs := sliceRows(sl, 20)
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatalf("append slice %d: %v", sl, err)
		}
	}
}

// A compaction merges the rows appended in this process from memory
// and decodes the L0 segments a reopened store finds on disk. Both
// must write the same L1 bytes.
func TestCompactHeldRowsMatchDecodedRows(t *testing.T) {
	held, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, held, 0, 4)

	dir := t.TempDir()
	first, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, first, 0, 3)
	reopened, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened.pending) != 0 {
		t.Fatalf("Open decoded %d segments; decoding waits for a compaction", len(reopened.pending))
	}
	appendRows(t, reopened, 3, 4)

	for _, s := range []*Store{held, reopened} {
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if m := s.Manifest(); len(m.Segments) != 1 || m.Segments[0].Level != 1 {
			t.Fatalf("want one L1 segment, got %+v", m.Segments)
		}
		if len(s.pending) != 0 {
			t.Fatalf("%d compacted segments still pending", len(s.pending))
		}
	}
	if hashDir(t, held.Dir()) != hashDir(t, dir) {
		t.Fatal("L1 from held rows differs from L1 from decoded rows")
	}
}

// The campaign reuses its capture and result slices across barriers:
// overwriting them after AppendSlice returns must not reach the rows
// the store holds for compaction.
func TestCompactIgnoresReusedCallerSlices(t *testing.T) {
	ref, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, ref, 0, 8)

	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cs []CaptureRow
	var rs []*zgrab.Result
	for sl := 0; sl < 8; sl++ {
		c, r := sliceRows(sl, 20)
		cs, rs = append(cs[:0], c...), append(rs[:0], r...)
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			cs[i] = testCapture(1000 + i)
			rs[i] = testResult(1000+i, 99)
		}
	}
	for _, st := range []*Store{ref, s} {
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if hashDir(t, ref.Dir()) != hashDir(t, s.Dir()) {
		t.Fatal("overwriting the caller's slices after AppendSlice changed the compacted store")
	}
}
