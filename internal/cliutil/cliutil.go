// Package cliutil holds the flag conventions shared by every cmd/*
// binary: the -version flag, the repo-standard -shards flag, and the
// repeatable -fail flag, so the binaries agree on wording and behavior
// instead of drifting copy by copy.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"tokendrop/internal/fault"
)

// Version returns the one-line version string every binary prints for
// -version: the module version and VCS revision when the build recorded
// them (builds from a git checkout do), plus the Go toolchain.
func Version() string {
	version, revision, dirty := "(devel)", "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	if len(revision) > 12 {
		revision = revision[:12]
	}
	if revision != "" {
		return fmt.Sprintf("tokendrop %s (%s%s, %s)", version, revision, dirty, runtime.Version())
	}
	return fmt.Sprintf("tokendrop %s (%s)", version, runtime.Version())
}

// VersionFlag registers the conventional -version flag on the default
// flag set. Call HandleVersionFlag with the returned pointer right
// after flag.Parse.
func VersionFlag() *bool {
	return flag.Bool("version", false, "print version information and exit")
}

// HandleVersionFlag prints the version line and exits 0 when the
// -version flag was given; a no-op otherwise.
func HandleVersionFlag(show *bool) {
	if *show {
		fmt.Println(Version())
		os.Exit(0)
	}
}

// ShardsFlag registers the conventional -shards flag with the
// repo-standard wording, shared by every binary that runs the sharded
// engine.
func ShardsFlag() *int {
	return flag.Int("shards", 0, "sharded engine worker count (0 = runtime.GOMAXPROCS(0), i.e. one worker per core)")
}

// FailFlag collects the specs of the repeatable -fail flag, one
// failpoint each in fault.ParseSpec's SITE:KIND:key=val,... form.
type FailFlag []string

// NewFailFlag registers the conventional -fail flag on the default flag
// set; example is the binary's own sample spec for the usage line.
func NewFailFlag(example string) *FailFlag {
	f := new(FailFlag)
	flag.Var(f, "fail", "arm a failpoint, SITE:KIND:key=val,... (repeatable); e.g. "+example)
	return f
}

// String renders the collected specs for flag's usage output.
func (f *FailFlag) String() string { return fmt.Sprint([]string(*f)) }

// Set appends one spec per flag occurrence.
func (f *FailFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// Arm parses every collected spec and arms it on reg, in flag order. At
// the first spec that does not parse it stops and returns that spec with
// fault.ParseSpec's error, so each binary words the failure its own way.
func (f FailFlag) Arm(reg *fault.Registry) (spec string, err error) {
	for _, spec := range f {
		site, sched, err := fault.ParseSpec(spec)
		if err != nil {
			return spec, err
		}
		reg.Arm(site, sched)
	}
	return "", nil
}
