package calibrate

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoad: a PPTUNE file is outside input, so whatever its bytes, Load
// returns an error or a profile that validates and survives Save and Load
// unchanged, and LoadLenient returns nil exactly when Load errors. The seed
// corpus is in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	// Inputs run one at a time per process, so they share two file names.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(path)
		lenient := LoadLenient(path, nil)
		if err != nil {
			if p != nil || lenient != nil {
				t.Fatalf("error %v with a profile (Load %v, LoadLenient %v)", err, p, lenient)
			}
			return
		}
		if lenient == nil || !reflect.DeepEqual(*lenient, *p) {
			t.Fatalf("Load accepted %+v, LoadLenient returned %+v", p, lenient)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile does not validate: %v", err)
		}
		out := filepath.Join(dir, "out.json")
		if err := Save(out, p); err != nil {
			t.Fatalf("accepted profile does not save: %v", err)
		}
		back, err := Load(out)
		if err != nil {
			t.Fatalf("saved profile does not load: %v", err)
		}
		if !reflect.DeepEqual(*back, *p) {
			t.Fatalf("round trip changed the profile: %+v, then %+v", p, back)
		}
	})
}
