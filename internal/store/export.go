package store

import "io"

// ExportJSONL is the compatibility view: it streams the result rows
// matching pred to w in the campaign's JSONL encoding (one
// zgrab.Result.AppendJSON line per result, canonical order), so
// downstream JSONL consumers keep working against a store-backed
// campaign. An unfiltered export of an uncompacted-or-compacted store
// reproduces the legacy campaign output byte-for-byte.
func (s *Store) ExportJSONL(w io.Writer, pred Pred) error {
	pred.Kind = KindResults
	it := s.Scan(pred)
	defer it.Close()
	var line []byte
	for it.Next() {
		var err error
		if line, err = it.Row().Result.AppendJSON(line[:0]); err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return it.Err()
}
