package stats

import (
	"bytes"
	"encoding/binary"
	"math"
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

// FuzzQuantileSketchMergeEncoded checks the sketch decoder, which reads
// Figure 8's sketch out of the last-day frames workers send the
// coordinator. On arbitrary bytes it never panics, and neither do the
// queries on whatever it accepted. A sketch built from the same bytes,
// read as samples, round-trips: Decode(Encode(s)) re-encodes to the same
// bytes, and merging s's encoding equals Merge(s). An arbitrary accepted
// frame need not re-encode to itself: adding a -0.0 bin to a zeroed
// sketch yields +0.0.
func FuzzQuantileSketchMergeEncoded(f *testing.F) {
	// Figure 8's layout, and a small linear one.
	layouts := []func() (*QuantileSketch[float64], error){
		func() (*QuantileSketch[float64], error) { return NewLogQuantileSketch(62.5, 16000.0, 128) },
		func() (*QuantileSketch[float64], error) { return NewLinearQuantileSketch(-10.0, 10.0, 8) },
	}
	newSketch := func(t testing.TB, layout int) *QuantileSketch[float64] {
		s, err := layouts[layout]()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seed := newSketch(f, 0)
	f.Add(seed.Encode(nil))
	for _, x := range []float64{3, 100, 483, 2000, 1e6} {
		seed.Add(x)
	}
	frame := seed.Encode(nil)
	f.Add(frame)
	f.Add(append(bytes.Clone(frame), 0xAB)) // a trailing byte is the caller's
	f.Add(frame[:40])                       // truncated bins
	f.Fuzz(func(t *testing.T, data []byte) {
		for layout := range layouts {
			got := newSketch(t, layout)
			if _, err := got.MergeEncoded(data); err == nil {
				_ = got.Quantile(0.5)
				_ = got.P(2000)
				_ = got.SampleCDF("accepted", LogGrid(64.0, 8192.0, 14))
			}

			s := newSketch(t, layout)
			for b := data; len(b) >= 8; b = b[8:] {
				s.Add(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
			enc := s.Encode(nil)
			dec := newSketch(t, layout)
			if _, err := dec.Decode(enc); err != nil {
				t.Fatalf("own encoding rejected: %v", err)
			}
			if re := dec.Encode(nil); !bytes.Equal(re, enc) {
				t.Fatalf("Decode(Encode(s)) re-encodes differently:\n got %x\nwant %x", re, enc)
			}
			// Merge into a sketch that already holds a sample, both ways.
			viaBytes, viaMerge := newSketch(t, layout), newSketch(t, layout)
			viaBytes.Add(1)
			viaMerge.Add(1)
			if _, err := viaBytes.MergeEncoded(enc); err != nil {
				t.Fatalf("own encoding rejected by MergeEncoded: %v", err)
			}
			if err := viaMerge.Merge(s); err != nil {
				t.Fatal(err)
			}
			if a, b := viaBytes.Encode(nil), viaMerge.Encode(nil); !bytes.Equal(a, b) {
				t.Fatalf("MergeEncoded(s.Encode(nil)) differs from Merge(s):\n got %x\nwant %x", a, b)
			}
		}
	})
}
