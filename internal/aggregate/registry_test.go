package aggregate

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// registryCanonical pairs every fixed registry name with the value the
// retired hardcoded switch returned for it — the contract that no filter
// changed identity when the registry replaced the switch.
func registryCanonical() []struct {
	name string
	want Filter
} {
	return []struct {
		name string
		want Filter
	}{
		{"mean", Mean{}},
		{"cge", CGE{}},
		{"cge-avg", CGE{Averaged: true}},
		{"cwtm", CWTM{}},
		{"cwmedian", CWMedian{}},
		{"krum", Krum{}},
		{"multikrum", MultiKrum{M: 3}},
		{"bulyan", Bulyan{}},
		{"geomedian", GeoMedian{}},
		{"gmom", GeoMedianOfMeans{Groups: 3}},
		{"centeredclip", CenteredClip{}},
		{"krum-sketch", &KrumSketch{}},
		{"multikrum-sketch", &MultiKrumSketch{M: 3}},
		{"bulyan-sketch", &BulyanSketch{}},
		{"krum-sampled", &KrumSampled{}},
		{"multikrum-sampled", &MultiKrumSampled{M: 3}},
		{"bulyan-sampled", &BulyanSampled{}},
		{"sdmmfd", &SDMMFD{}},
		{"r-sdmmfd", &RSDMMFD{}},
		{"sdfd", &SDFD{}},
		{"rvo", RVO{}},
	}
}

// TestRegistryMatchesDirectConstruction pins every fixed name to the exact
// filter value the pre-registry switch constructed (structural identity via
// DeepEqual) and to bitwise-identical aggregation output — so routing
// through the registry can never change a result.
func TestRegistryMatchesDirectConstruction(t *testing.T) {
	r := rand.New(rand.NewSource(9001))
	grads := fuzzGradients(r, 11, 7, 0)
	for _, tc := range registryCanonical() {
		got, err := New(tc.name)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("New(%q) = %#v, want %#v", tc.name, got, tc.want)
		}
		wantOut, wantErr := tc.want.Aggregate(grads, 1)
		gotOut, gotErr := got.Aggregate(grads, 1)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("New(%q): error mismatch direct=%v registry=%v", tc.name, wantErr, gotErr)
		}
		if wantErr == nil && !bitwiseEqual(wantOut, gotOut) {
			t.Errorf("New(%q): output diverges from direct construction\ndirect   %v\nregistry %v",
				tc.name, wantOut, gotOut)
		}
	}
}

// TestRegistryNamesOrder pins the registration order: the pre-registry list
// first (so defaulted sweeps keep their grid order), the REDGRAF filters
// appended, and every name constructible.
func TestRegistryNamesOrder(t *testing.T) {
	canonical := registryCanonical()
	names := Names()
	if len(names) != len(canonical) {
		t.Fatalf("Names() has %d entries, want %d: %v", len(names), len(canonical), names)
	}
	for i, tc := range canonical {
		if names[i] != tc.name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], tc.name)
		}
	}
	wantFamilies := []string{"multikrum", "gmom", "multikrum-sketch", "multikrum-sampled"}
	if got := FamilyPrefixes(); !reflect.DeepEqual(got, wantFamilies) {
		t.Errorf("FamilyPrefixes() = %v, want %v", got, wantFamilies)
	}
}

// TestRegistryParamSpellings resolves parameterized names against direct
// construction, and verifies fixed names win over family spellings.
func TestRegistryParamSpellings(t *testing.T) {
	cases := []struct {
		name string
		want Filter
	}{
		{"multikrum-7", MultiKrum{M: 7}},
		{"multikrum-1", MultiKrum{M: 1}},
		{"gmom-5", GeoMedianOfMeans{Groups: 5}},
		{"multikrum-sketch-4", &MultiKrumSketch{M: 4}},
		{"multikrum-sampled-2", &MultiKrumSampled{M: 2}},
		// The fixed name wins over the family: "multikrum" is the registered
		// M=3 default, never a parse of the family prefix alone.
		{"multikrum", MultiKrum{M: 3}},
	}
	for _, tc := range cases {
		got, err := New(tc.name)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("New(%q) = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// TestRegistryUnknownNames: every non-name — typos, non-positive or
// non-integer parameters, unregistered prefixes — fails with ErrInput and an
// error message listing the full vocabulary (fixed names and family
// spellings), so a CLI user sees every accepted input.
func TestRegistryUnknownNames(t *testing.T) {
	for _, name := range []string{
		"", "nope", "krum2", "multikrum-", "multikrum-0", "multikrum--3",
		"multikrum-x", "gmom-1.5", "sdmmfd-2", "-7",
	} {
		fl, err := New(name)
		if err == nil {
			t.Fatalf("New(%q) = %v (%T), want error", name, fl, fl)
		}
		if !errors.Is(err, ErrInput) {
			t.Errorf("New(%q): %v is not ErrInput", name, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "registered:") || !strings.Contains(msg, "parameterized:") ||
			!strings.Contains(msg, "sdmmfd") || !strings.Contains(msg, "multikrum-<k>") {
			t.Errorf("New(%q): error does not list the registry: %s", name, msg)
		}
	}
}

// TestRegisterRejects covers the registration error paths: empty names, nil
// constructors, and duplicates of built-ins (for both the fixed table and
// the family table).
func TestRegisterRejects(t *testing.T) {
	if err := Register("", func() Filter { return Mean{} }); !errors.Is(err, ErrInput) {
		t.Errorf("Register(\"\"): %v, want ErrInput", err)
	}
	if err := Register("x-nil-ctor", nil); !errors.Is(err, ErrInput) {
		t.Errorf("Register(nil ctor): %v, want ErrInput", err)
	}
	if err := Register("mean", func() Filter { return Mean{} }); !errors.Is(err, ErrInput) {
		t.Errorf("Register duplicate: %v, want ErrInput", err)
	}
	if err := RegisterParam("", func(int) (Filter, error) { return Mean{}, nil }); !errors.Is(err, ErrInput) {
		t.Errorf("RegisterParam(\"\"): %v, want ErrInput", err)
	}
	if err := RegisterParam("gmom", func(int) (Filter, error) { return Mean{}, nil }); !errors.Is(err, ErrInput) {
		t.Errorf("RegisterParam duplicate: %v, want ErrInput", err)
	}
}

// unregisterAfter takes a name and a family prefix a test registered back out
// of the process-wide registry when the test ends, so the package passes at
// any -count and under -shuffle (TestRegistryNamesOrder counts the names).
func unregisterAfter(t *testing.T, name, prefix string) {
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		delete(registry, name)
		registryOrder = slices.DeleteFunc(registryOrder, func(s string) bool { return s == name })
		delete(paramFamilies, prefix)
		paramOrder = slices.DeleteFunc(paramOrder, func(s string) bool { return s == prefix })
	})
}

// TestRegisterExtends exercises the extension path end to end: a registered
// custom filter and family resolve through New exactly like built-ins.
func TestRegisterExtends(t *testing.T) {
	unregisterAfter(t, "test-custom-mean", "test-custom-mk")
	if err := Register("test-custom-mean", func() Filter { return Mean{} }); err != nil {
		t.Fatal(err)
	}
	if fl, err := New("test-custom-mean"); err != nil {
		t.Fatal(err)
	} else if _, ok := fl.(Mean); !ok {
		t.Fatalf("custom name resolved to %T, want Mean", fl)
	}
	if err := RegisterParam("test-custom-mk", func(m int) (Filter, error) {
		return MultiKrum{M: m}, nil
	}); err != nil {
		t.Fatal(err)
	}
	fl, err := New("test-custom-mk-9")
	if err != nil {
		t.Fatal(err)
	}
	if mk, ok := fl.(MultiKrum); !ok || mk.M != 9 {
		t.Fatalf("family spelling resolved to %#v, want MultiKrum{M: 9}", fl)
	}
	found := false
	for _, name := range Names() {
		if name == "test-custom-mean" {
			found = true
		}
	}
	if !found {
		t.Error("registered custom name missing from Names()")
	}
}
