package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// lastRecordLine returns the offset where data's last non-blank line starts
// and that line with surrounding blanks trimmed, or ok false when data has
// no non-blank line.
func lastRecordLine(data []byte) (start int, rec []byte, ok bool) {
	end := len(data)
	for end > 0 {
		start = bytes.LastIndexByte(data[:end], '\n') + 1
		if rec = bytes.TrimSpace(data[start:end]); len(rec) > 0 {
			return start, rec, true
		}
		end = start - 1
	}
	return 0, nil, false
}

// FuzzSummarizeJSONL: the one trace reader never panics, and tearing the
// last record of any trace it accepts turns it into ErrTruncatedTrace, the
// error a killed writer leaves behind. Seed corpus in testdata/fuzz.
func FuzzSummarizeJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := SummarizeJSONL(bytes.NewReader(data)); err != nil {
			return
		}
		start, rec, ok := lastRecordLine(data)
		if !ok {
			t.Fatal("accepted a trace with no record")
		}
		// An accepted line is one JSON object, so every strict prefix of
		// it is malformed.
		torn := append(data[:start:start], rec[:len(rec)/2]...)
		if _, err := SummarizeJSONL(bytes.NewReader(torn)); !errors.Is(err, ErrTruncatedTrace) {
			t.Fatalf("torn tail %q: err = %v, want ErrTruncatedTrace", torn, err)
		}
	})
}

// FuzzConvertJSONL: every trace SummarizeJSONL accepts converts to both
// exports without error, and the Chrome export is valid JSON.
func FuzzConvertJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := SummarizeJSONL(bytes.NewReader(data)); err != nil {
			return
		}
		var chrome bytes.Buffer
		if err := ConvertJSONL(bytes.NewReader(data), &chrome, FormatChrome); err != nil {
			t.Fatalf("chrome: %v", err)
		}
		if !json.Valid(chrome.Bytes()) {
			t.Fatalf("chrome export is not valid JSON: %s", chrome.Bytes())
		}
		if err := ConvertJSONL(bytes.NewReader(data), io.Discard, FormatCSV); err != nil {
			t.Fatalf("csv: %v", err)
		}
	})
}
