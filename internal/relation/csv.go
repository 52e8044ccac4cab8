package relation

import (
	"encoding/csv"
	"fmt"
	"io"
)

// ReadCSVRows parses a header + data rows table from CSV without
// interning it into a Table — the shared codec behind cmd/kanon's file
// handling and the server's job ingest, both of which hand plain string
// rows to the public facade. Every record must have the header's
// arity; a table with no data rows is an error (there is nothing to
// anonymize).
func ReadCSVRows(r io.Reader) (header []string, rows [][]string, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err = cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("reading CSV header: %w", err)
	}
	if len(header) == 0 {
		return nil, nil, fmt.Errorf("empty CSV header")
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, nil, fmt.Errorf("CSV line %d has %d fields, want %d", line, len(rec), len(header))
		}
		rows = append(rows, rec)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no data rows")
	}
	return header, rows, nil
}

// WriteCSVRows renders a header + rows table as CSV — the inverse of
// ReadCSVRows, used to emit anonymized releases.
//
// A record whose only field is the empty string is written as a quoted
// `""` rather than encoding/csv's bare empty line, which the reader
// would silently skip; this keeps ReadCSVRows(WriteCSVRows(t)) lossless
// for single-column tables with empty cells.
func WriteCSVRows(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := writeRecord(cw, w, header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeRecord(cw, w, r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRecord writes one record through cw, special-casing the lone
// empty field (see WriteCSVRows). The raw write flushes first so the
// two write paths cannot interleave out of order.
func writeRecord(cw *csv.Writer, w io.Writer, rec []string) error {
	if len(rec) == 1 && rec[0] == "" {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\"\"\n")
		return err
	}
	return cw.Write(rec)
}
