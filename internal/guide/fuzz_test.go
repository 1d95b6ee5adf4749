package guide

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fastgr/internal/geom"
)

// FuzzParseGuide hardens the guide parser: arbitrary input must never
// panic, and anything it accepts must survive a Write/Read round trip
// unchanged.
func FuzzParseGuide(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, []Guide{
		{Net: "n0", Boxes: []Box{
			{Layer: 1, Rect: geom.Rect{Hi: geom.Point{X: 3}}},
			{Layer: 2, Rect: geom.Rect{Lo: geom.Point{X: 3}, Hi: geom.Point{X: 3, Y: 7}}},
		}},
		{Net: "net with spaces"},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("n\n(\n0 0 0 0 1\n)\n")
	f.Add("n\n(\n1 2 0 0 1\n)\n")
	f.Add("n\n(\n0 0 1 1 0\n)\n")
	f.Add("n\n(\n-1 0 1 1 1\n)\n")
	f.Add("n\n(\n0 0 1 1 1 9\n)\n")
	f.Add("n\n(\n0 0 x 1 1\n)\n")
	f.Add("n\n(\n")
	f.Add(")\n(\n")
	f.Add("a\nb\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		guides, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := Write(&buf, guides); err != nil {
			t.Fatalf("Write failed on accepted guides: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, guides) {
			t.Fatalf("round trip changed the guides:\n%+v\nvs\n%+v", guides, again)
		}
	})
}
