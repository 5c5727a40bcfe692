package stats

import (
	"bytes"
	"testing"
)

// FuzzECDFMergeEncoded checks the ECDF builder decoder — whose input
// crosses the worker/coordinator process boundary — on arbitrary bytes:
// it never panics, and any frame it accepts round-trips, re-encoding to
// exactly the bytes it consumed.
func FuzzECDFMergeEncoded(f *testing.F) {
	var b ECDFBuilder[float64]
	f.Add(b.Encode(nil))
	b.AddWeighted(3.5, 1)
	b.AddWeighted(-2, 0.25)
	frame := b.Encode(nil)
	f.Add(frame)
	f.Add(append(append([]byte{}, frame...), 0xAB)) // a trailing byte is the caller's
	f.Add(frame[:20])                               // truncated payload
	// A count of 1<<60 samples, whose 16-byte payload size wraps to 0.
	f.Add([]byte{ecdfMagic, 0, 0, 0, 0, 0, 0, 0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got ECDFBuilder[float64]
		rest, err := got.MergeEncoded(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		consumed := data[:len(data)-len(rest)]
		if re := got.Encode(nil); !bytes.Equal(re, consumed) {
			t.Fatalf("accepted frame does not round-trip:\n got %x\nwant %x", re, consumed)
		}
	})
}
