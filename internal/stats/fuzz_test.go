package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantileSketchMergeEncoded checks the sketch decoder, which reads
// Figure 8's sketch out of the last-day frames workers send the
// coordinator. On arbitrary bytes it never panics, and neither do the
// queries on whatever it accepted. A sketch built from the same bytes,
// read as samples, round-trips: merging its encoding into an empty sketch
// re-encodes to the same bytes, and merging it into a sketch that already
// holds a sample equals adding the same samples to that sketch directly.
// An arbitrary accepted frame need not re-encode to itself: adding a -0.0
// bin to a zeroed sketch yields +0.0.
func FuzzQuantileSketchMergeEncoded(f *testing.F) {
	// Figure 8's layout, and a small one whose range starts below 1.
	layouts := []func() (*QuantileSketch[float64], error){
		func() (*QuantileSketch[float64], error) { return NewLogQuantileSketch(62.5, 16000.0, 128) },
		func() (*QuantileSketch[float64], error) { return NewLogQuantileSketch(0.01, 10.0, 8) },
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

			// direct holds one sample before the rest, so the encoded
			// merge below is checked against a sketch that is not empty.
			s, direct := newSketch(t, layout), newSketch(t, layout)
			direct.Add(1)
			for b := data; len(b) >= 8; b = b[8:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(b))
				s.Add(x)
				direct.Add(x)
			}
			enc := s.Encode(nil)
			dec := newSketch(t, layout)
			if _, err := dec.MergeEncoded(enc); err != nil {
				t.Fatalf("own encoding rejected: %v", err)
			}
			if re := dec.Encode(nil); !bytes.Equal(re, enc) {
				t.Fatalf("merging Encode(s) into an empty sketch re-encodes differently:\n got %x\nwant %x", re, enc)
			}
			viaBytes := newSketch(t, layout)
			viaBytes.Add(1)
			if _, err := viaBytes.MergeEncoded(enc); err != nil {
				t.Fatalf("own encoding rejected by MergeEncoded: %v", err)
			}
			if a, b := viaBytes.Encode(nil), direct.Encode(nil); !bytes.Equal(a, b) {
				t.Fatalf("MergeEncoded(s.Encode(nil)) differs from adding s's samples directly:\n got %x\nwant %x", a, b)
			}
		}
	})
}
