package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ntpscan/internal/zgrab"
)

// maybeCompact runs the compaction policy after slice has been
// appended: at every K-th slice boundary ((slice+1)%K == 0) all
// pending L0 segments are merged into one L1 segment. The trigger is
// slice-aligned — it fires even when the slice wrote no segment — so
// the final segment layout is a pure function of the appended rows,
// never of batch timing.
func (s *Store) maybeCompact(slice int) error {
	k := s.opt.compactEvery()
	if k <= 0 || (slice+1)%k != 0 {
		return nil
	}
	var inputs []SegmentInfo
	for _, si := range s.man.Segments {
		if si.Level == 0 && si.SliceHi <= slice {
			inputs = append(inputs, si)
		}
	}
	if len(inputs) < 2 {
		return nil
	}
	return s.compact(inputs)
}

// segRows is one L0 segment's rows, held for compaction: the caller's
// capture rows copied, the result pointers shared.
type segRows struct {
	caps    []CaptureRow
	results []*zgrab.Result
}

// compact merges the input segments (already in manifest order) into
// one L1 segment: all capture rows in segment order, then all result
// rows in segment order, re-chunked into fresh blocks. The rows come
// from s.pending; inputs missing there are decoded into it first.
// Inputs are retired (renamed, not deleted) before the manifest
// commits the merge, so a crash at any point recovers: an unmanifested
// L1 is a deletable stray, and retired-but-still-manifested inputs are
// resurrected by recover/ResetTo.
func (s *Store) compact(inputs []SegmentInfo) error {
	for _, si := range inputs {
		if _, ok := s.pending[si.Name]; !ok {
			if err := s.loadPending(si); err != nil {
				return fmt.Errorf("store: compact: segment %s: %w", si.Name, err)
			}
		}
	}
	sb := s.builder()
	sb.canonGrabs = true
	for _, si := range inputs {
		for _, c := range s.pending[si.Name].caps {
			sb.addCapture(c, si.SliceLo)
		}
	}
	sb.flushCaptures()
	for _, si := range inputs {
		for _, r := range s.pending[si.Name].results {
			if err := sb.addResult(r, si.SliceLo); err != nil {
				return err
			}
		}
	}
	data, rows, err := sb.finish()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seg-L1-%05d-%05d.seg", sb.sliceLo, sb.sliceHi)
	if err := s.writeFileAtomic(name, data); err != nil {
		return err
	}
	for _, si := range inputs {
		path := filepath.Join(s.dir, si.Name)
		if err := os.Rename(path, path+retiredSuffix); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		delete(s.pending, si.Name)
	}
	retired := make(map[string]bool, len(inputs))
	for _, si := range inputs {
		retired[si.Name] = true
	}
	kept := s.man.Segments[:0]
	for _, si := range s.man.Segments {
		if !retired[si.Name] {
			kept = append(kept, si)
		}
	}
	s.man.Segments = append(kept, SegmentInfo{
		Name:    name,
		Level:   1,
		SliceLo: sb.sliceLo,
		SliceHi: sb.sliceHi,
		Rows:    rows,
		Size:    int64(len(data)),
		CRC32:   crcOf(data),
	})
	sort.SliceStable(s.man.Segments, func(i, j int) bool {
		return s.man.Segments[i].SliceLo < s.man.Segments[j].SliceLo
	})
	if s.met != nil {
		s.met.Compactions.Inc()
		s.met.SegmentsCompacted.Add(int64(len(inputs)))
		s.met.SegmentsWritten.Inc()
		s.met.BlocksWritten.Add(int64(len(sb.blocks)))
		s.met.BytesWritten.Add(int64(len(data)))
	}
	return s.persistManifest()
}

// loadPending decodes an L0 segment's rows into s.pending. Every row of
// an L0 segment belongs to its one slice.
func (s *Store) loadPending(si SegmentInfo) error {
	data, err := os.ReadFile(filepath.Join(s.dir, si.Name))
	if err != nil {
		return err
	}
	var rows segRows
	inSlice := func(slice int) error {
		if slice != si.SliceLo {
			return errCorrupt
		}
		return nil
	}
	err = DecodeSegment(data, func(c CaptureRow, slice int) error {
		rows.caps = append(rows.caps, c)
		return inSlice(slice)
	}, func(r *zgrab.Result, slice int) error {
		rows.results = append(rows.results, r)
		return inSlice(slice)
	})
	if err != nil {
		return err
	}
	s.pending[si.Name] = rows
	return nil
}
