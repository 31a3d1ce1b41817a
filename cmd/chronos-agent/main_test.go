package main

import (
	"flag"
	"os"
	"os/exec"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the -h golden file from the binary's flags")

// TestMain lets a test run this binary as chronos-agent itself: with
// CHRONOS_AGENT_AS_MAIN set, the process is main() over its arguments, on
// a flag set of its own so the test binary's flags are not among them.
func TestMain(m *testing.M) {
	if os.Getenv("CHRONOS_AGENT_AS_MAIN") != "" {
		flag.CommandLine = flag.NewFlagSet("chronos-agent", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHelpGolden pins `chronos-agent -h` — every flag with its default and
// its help — beside routes.golden and chronos-control's: a new, changed or
// removed flag is a reviewed diff (go test ./cmd/chronos-agent -run
// TestHelpGolden -update).
func TestHelpGolden(t *testing.T) {
	const golden = "../../internal/rest/testdata/chronos-agent-h.golden"
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "CHRONOS_AGENT_AS_MAIN=1")
	got, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("chronos-agent -h: %v\n%s", err, got)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("chronos-agent -h differs from %s (run go test ./cmd/chronos-agent -run TestHelpGolden -update and review the diff):\n%s", golden, got)
	}
}
