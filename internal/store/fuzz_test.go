package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ntpscan/internal/zgrab"
)

// seedSegment builds a small valid segment image covering both row
// kinds, multi-slice rows, and every column type — the canonical
// corpus entry the fuzzer mutates from.
func seedSegment(tb testing.TB, nCaps, nRes int) []byte {
	sb := newSegBuilder()
	for i := 0; i < nCaps; i++ {
		sb.addCapture(testCapture(i), i%3)
	}
	sb.flushCaptures()
	for i := 0; i < nRes; i++ {
		if err := sb.addResult(testResult(i, i%3), i%3); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sb.flushResults(); err != nil {
		tb.Fatal(err)
	}
	data, _, err := sb.finish()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzSegmentDecode hardens the segment footer and block decoders:
// arbitrary bytes must either fail with an error or decode cleanly —
// never panic, never over-allocate — and anything that decodes must
// survive a re-encode/re-decode round trip with its row streams
// intact. This is the boundary crash recovery crosses when it reopens
// a store after a torn write.
func FuzzSegmentDecode(f *testing.F) {
	full := seedSegment(f, 24, 24)
	f.Add(full)
	f.Add(seedSegment(f, 1, 0))
	f.Add(seedSegment(f, 0, 3))
	f.Add(full[:len(full)/2]) // truncated tail
	f.Add([]byte(segMagic))   // header only
	f.Add([]byte("not a segment"))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		type capRow struct {
			c     CaptureRow
			slice int
		}
		type resRow struct {
			j     string
			slice int
		}
		var caps []capRow
		var results []resRow
		sane := true
		err := DecodeSegment(data,
			func(c CaptureRow, slice int) error {
				if slice < 0 || slice > 1<<20 {
					sane = false
				}
				caps = append(caps, capRow{c, slice})
				return nil
			},
			func(r *zgrab.Result, slice int) error {
				if slice < 0 || slice > 1<<20 {
					sane = false
				}
				b, err := json.Marshal(r)
				if err != nil {
					return err
				}
				results = append(results, resRow{string(b), slice})
				return nil
			})
		if err != nil || !sane {
			// Rejected (or decoded rows outside the writer's domain —
			// adversarial but well-formed inputs the builder can't
			// round-trip). Either way: no panic is the contract.
			return
		}
		// Accepted inputs must round-trip through the builder.
		sb := newSegBuilder()
		for _, cr := range caps {
			sb.addCapture(cr.c, cr.slice)
		}
		sb.flushCaptures()
		for _, rr := range results {
			r := &zgrab.Result{}
			if err := json.Unmarshal([]byte(rr.j), r); err != nil {
				t.Fatalf("re-decode row: %v", err)
			}
			if err := sb.addResult(r, rr.slice); err != nil {
				t.Fatalf("re-add row: %v", err)
			}
		}
		if err := sb.flushResults(); err != nil {
			t.Fatalf("re-flush: %v", err)
		}
		rebuilt, _, err := sb.finish()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var caps2 []capRow
		var results2 []resRow
		err = DecodeSegment(rebuilt,
			func(c CaptureRow, slice int) error {
				caps2 = append(caps2, capRow{c, slice})
				return nil
			},
			func(r *zgrab.Result, slice int) error {
				b, err := json.Marshal(r)
				if err != nil {
					return err
				}
				results2 = append(results2, resRow{string(b), slice})
				return nil
			})
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		if len(caps2) != len(caps) || len(results2) != len(results) {
			t.Fatalf("round trip changed row counts: %d/%d -> %d/%d",
				len(caps), len(results), len(caps2), len(results2))
		}
		for i := range caps {
			if caps[i] != caps2[i] {
				t.Fatalf("capture row %d changed across round trip", i)
			}
		}
		for i := range results {
			if results[i] != results2[i] {
				t.Fatalf("result row %d changed across round trip", i)
			}
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzSegmentDecode. Skipped unless explicitly asked
// for:
//
//	NTPSCAN_REGEN_FUZZ_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/store/
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("NTPSCAN_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set NTPSCAN_REGEN_FUZZ_CORPUS=1 to rewrite the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	full := seedSegment(t, 24, 24)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	entries := map[string][]byte{
		"seed-full":        full,
		"seed-captures":    seedSegment(t, 5, 0),
		"seed-results":     seedSegment(t, 0, 5),
		"seed-truncated":   full[:len(full)/2],
		"seed-magic-only":  []byte(segMagic),
		"seed-flipped-bit": flipped,
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
