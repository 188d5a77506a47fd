package cliutil

import (
	"strings"
	"testing"

	"tokendrop/internal/fault"
)

func TestVersionShape(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, "tokendrop ") {
		t.Fatalf("version line %q does not name the module", v)
	}
	if !strings.Contains(v, "go1") {
		t.Fatalf("version line %q does not name the toolchain", v)
	}
}

// TestFailFlagArm checks the shared -fail flag: repeated occurrences
// collect in order, Arm arms each parsed spec on the registry, and it
// stops at the first bad spec and names it.
func TestFailFlagArm(t *testing.T) {
	var f FailFlag
	for _, v := range []string{"engine/round:error:at=2", "serve/delta:crash:every=1"} {
		if err := f.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.String(); got != "[engine/round:error:at=2 serve/delta:crash:every=1]" {
		t.Fatalf("String() = %q", got)
	}
	reg := fault.NewRegistry(1)
	if spec, err := f.Arm(reg); err != nil {
		t.Fatalf("Arm: %q: %v", spec, err)
	}
	if got := strings.Join(reg.Sites(), " "); got != "engine/round serve/delta" {
		t.Fatalf("armed sites %q", got)
	}
	if err := f.Set("resolver/repair:bogus:at=1"); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Arm(fault.NewRegistry(1))
	if err == nil || spec != "resolver/repair:bogus:at=1" {
		t.Fatalf("Arm on a bad spec = %q, %v; want that spec and an error", spec, err)
	}
}
