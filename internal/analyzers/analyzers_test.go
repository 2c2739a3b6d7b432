package analyzers

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestNoWallTime(t *testing.T)   { RunFixture(t, NoWallTime, "nowalltime") }
func TestNoGlobalRand(t *testing.T) { RunFixture(t, NoGlobalRand, "noglobalrand") }
func TestTelemetryNil(t *testing.T) { RunFixture(t, TelemetryNil, "telemetrynil") }
func TestFaultNil(t *testing.T)     { RunFixture(t, FaultNil, "faultnil") }
func TestFloatEq(t *testing.T)      { RunFixture(t, FloatEq, "floateq") }
func TestMapIterOrder(t *testing.T) { RunFixture(t, MapIterOrder, "mapiterorder") }
func TestMutexCopy(t *testing.T)    { RunFixture(t, MutexCopy, "mutexcopy") }
func TestGoroLeak(t *testing.T)     { RunFixture(t, GoroLeak, "goroleak") }

// detpureContracts is the fixture contract table: four packages carry
// contracts, everything else in the tree (mid, leaf, impl, sweepcb) is
// deliberately uncontracted so findings land only on the contract side.
func detpureContracts() *ContractTable {
	return &ContractTable{
		Rules: map[string]Contract{
			"tianhelint.test/detpure/abft":    {Pure: true, NoGlobalWrites: true, Why: "fixture abft contract"},
			"tianhelint.test/detpure/serve":   {Pure: true, NoGlobalWrites: true, Why: "fixture serve contract"},
			"tianhelint.test/detpure/loadgen": {Pure: true, NoGlobalWrites: true, Why: "fixture loadgen contract"},
			"tianhelint.test/detpure/core":    {Pure: true, Why: "fixture core contract"},
		},
	}
}

func TestDetPure(t *testing.T) {
	RunModuleFixture(t, []*Analyzer{DetPure}, "detpure", detpureContracts())
}

func TestLockOrder(t *testing.T) {
	RunModuleFixture(t, []*Analyzer{LockOrder}, "lockcycle", nil)
}

// TestTransitiveLeakOldSuiteMissed pins the acceptance case for retiring
// the per-package purity analyzers: core never references time directly,
// so the syntactic checks pass it — while the interprocedural contract
// check charges it with the wall-clock read two hops away in leaf, and
// carries the full call path as the finding's why.
func TestTransitiveLeakOldSuiteMissed(t *testing.T) {
	l, pkgs := loadFixtureTree(t, "detpure")
	var core *Package
	for _, p := range pkgs {
		if p.Path == "tianhelint.test/detpure/core" {
			core = p
		}
	}
	if core == nil {
		t.Fatal("fixture package core not loaded")
	}

	old := Run(l.Fset(), []*Package{core}, []*Analyzer{NoWallTime, NoGlobalRand})
	if len(old) != 0 {
		t.Fatalf("per-package syntactic checks on core alone found %d findings, want 0: %v", len(old), old)
	}

	mod := BuildModule(l.Fset(), pkgs, &ModuleOptions{Contracts: detpureContracts()})
	var rate *Finding
	for _, f := range RunModule(mod, []*Analyzer{DetPure}) {
		if strings.Contains(f.Message, "core.Rate reaches time.Now") {
			g := f
			rate = &g
		}
	}
	if rate == nil {
		t.Fatal("detpure did not report the transitive leak through core.Rate")
	}
	if len(rate.Why) < 3 {
		t.Fatalf("core.Rate why path has %d hops, want the full core->mid->leaf chain: %q", len(rate.Why), rate.Why)
	}
	if last := rate.Why[len(rate.Why)-1]; !strings.Contains(last, "time.Now") {
		t.Errorf("why path should end at the direct source, got %q", last)
	}
}

// TestFactsRoundTrip checks that one package's facts serialize to a
// deterministic artifact and decode back to the same summaries.
func TestFactsRoundTrip(t *testing.T) {
	l, pkgs := loadFixtureTree(t, "detpure")
	mod := BuildModule(l.Fset(), pkgs, &ModuleOptions{Contracts: detpureContracts()})
	const path = FixtureModule + "/detpure/mid"

	enc, err := mod.Facts.EncodePackage(path)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	s2 := NewFactStore()
	if err := s2.DecodePackage(path, enc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	enc2, err := s2.EncodePackage(path)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("facts round-trip is not byte-identical:\n  first:  %s\n  second: %s", enc, enc2)
	}

	f := s2.FuncFacts(path, "Normalize")
	if f == nil {
		t.Fatal("decoded store lost facts for mid.Normalize")
	}
	if f.Taint[taintClock].Source != "time.Now" {
		t.Errorf("mid.Normalize clock taint source = %q, want time.Now", f.Taint[taintClock].Source)
	}
	if !reflect.DeepEqual(f, mod.Facts.FuncFacts(path, "Normalize")) {
		t.Error("decoded facts for mid.Normalize differ from the live store")
	}
}

func TestSuiteIsComplete(t *testing.T) {
	want := []string{"nowalltime", "noglobalrand", "telemetrynil", "faultnil", "floateq", "mapiterorder", "mutexcopy", "detpure", "lockorder", "goroleak"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
		if Lookup(a.Name) != a {
			t.Errorf("Lookup(%s) did not return the suite analyzer", a.Name)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name should return nil")
	}
}

// TestMalformedDirectives checks that lint:ignore directives missing a
// reason or check name are reported and suppress nothing: the fixture's
// time.Now calls must still be flagged.
func TestMalformedDirectives(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analyzers", "testdata", "src", "lintdirective")
	pkg, err := l.LoadDir(dir, "tianhelint.test/lintdirective")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(l.Fset(), []*Package{pkg}, []*Analyzer{NoWallTime})
	var directives, wallTime int
	for _, f := range findings {
		switch f.Check {
		case "lintdirective":
			directives++
		case "nowalltime":
			wallTime++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if directives != 2 {
		t.Errorf("got %d lintdirective findings, want 2", directives)
	}
	if wallTime != 2 {
		t.Errorf("got %d nowalltime findings, want 2 (malformed directives must not suppress)", wallTime)
	}
}

// TestLoadAllLoadsEachPackageOnce checks that a package whose files sort on
// both sides of a subpackage directory is loaded once, not once per run of
// its files in walk order.
func TestLoadAllLoadsEachPackageOnce(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(filepath.Join(root, "internal", "analyzers", "testdata", "src", "splitdir"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := []string{"splitdir.test", "splitdir.test/mid"}; !slices.Equal(paths, want) {
		t.Fatalf("LoadAll loaded %v, want %v", paths, want)
	}
}

// TestLoadAllSkipsNestedModules checks that a subdirectory holding its own
// go.mod is left out of the module tree: the fixture's nested module reads
// the wall clock, and LoadAll must never load it.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(filepath.Join(root, "internal", "analyzers", "testdata", "src", "nestedmod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := []string{"nestedmod.test", "nestedmod.test/sub"}; !slices.Equal(paths, want) {
		t.Fatalf("LoadAll loaded %v, want %v", paths, want)
	}
	if findings := Run(l.Fset(), pkgs, []*Analyzer{NoWallTime}); len(findings) != 0 {
		t.Fatalf("nested module leaked into the analysis: %v", findings)
	}
}
