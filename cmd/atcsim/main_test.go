package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"atcsched/internal/sched/registry"
)

func TestRunTinyScenario(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "CR", "-horizon", "60",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"per-cluster results", "vc0", "virtual time"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSpecFile(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(spec, []byte(
		`{"nodes":1,"horizonSec":60,"virtualClusters":[{"vms":1,"vcpus":1,"kernel":"ep","class":"A","rounds":1}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-f", spec}, &out); err != nil {
		t.Fatalf("run -f: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("scenario file run produced no output")
	}
}

func TestRunTraceSummary(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "ATC", "-horizon", "60",
		"-trace", "summary",
	}, &out)
	if err != nil {
		t.Fatalf("run -trace summary: %v", err)
	}
	// The summary must carry data, not just its header: the guest VM's
	// row with a nonzero dispatch count.
	lines := strings.Split(out.String(), "\n")
	header := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "vm ") && strings.Contains(l, "dispatches") {
			header = i
		}
	}
	if header < 0 {
		t.Fatalf("no trace summary in output:\n%s", out.String())
	}
	found := false
	for _, l := range lines[header+1:] {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == "vc0-0" {
			n, err := strconv.Atoi(f[1])
			found = err == nil && n > 0
		}
	}
	if !found {
		t.Errorf("trace summary has no vc0-0 row with nonzero dispatches:\n%s", strings.Join(lines[header:], "\n"))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-class", "Z"},
		{"-sched", "NOPE"},
		{"-f", "/nonexistent/path.json"},
		{"-trace", "wat:x", "-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1", "-kernel", "ep", "-class", "A", "-horizon", "60"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestListSchedulers pins the registry-backed listing: every registered
// kind appears, the paper's comparison set leads in its order, and each
// entry carries serialized defaults.
func TestListSchedulers(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list-schedulers"}, &out); err != nil {
		t.Fatalf("run -list-schedulers: %v", err)
	}
	got := out.String()
	for _, kind := range registry.Kinds() {
		if !strings.Contains(got, kind+"\t") {
			t.Errorf("listing missing kind %s:\n%s", kind, got)
		}
	}
	if !strings.Contains(got, "defaults:") || !strings.Contains(got, `"timeSlice": "30ms"`) {
		t.Errorf("listing missing serialized defaults:\n%s", got)
	}
	// Paper order: CR first, ATC after the other compared kinds.
	if cr, atc := strings.Index(got, "CR\t"), strings.Index(got, "ATC\t"); !(cr >= 0 && atc > cr) {
		t.Errorf("comparison set out of order (CR at %d, ATC at %d)", cr, atc)
	}
}

// TestUnknownSchedulerFlag pins that a typo'd -sched fails with the
// registry's enumerating error rather than a bare unknown-kind message.
func TestUnknownSchedulerFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-sched", "BOGUS", "-nodes", "1", "-vcs", "1", "-vcpus", "1", "-rounds", "1"}, &out)
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, want := range []string{`"BOGUS"`, "valid:", "CR", "ATC"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunTimelineArtifacts proves -timeline and -jsonl produce parseable
// artifacts on both the flag-built and spec-file paths.
func TestRunTimelineArtifacts(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.json")
	jl := filepath.Join(dir, "series.jsonl")
	var out strings.Builder
	err := run([]string{
		"-nodes", "2", "-vcs", "2", "-vcpus", "2", "-rounds", "1",
		"-kernel", "ep", "-class", "A", "-sched", "ATC", "-horizon", "120",
		"-timeline", tl, "-jsonl", jl,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertTimeline(t, tl)
	assertJSONL(t, jl)

	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(
		`{"nodes":1,"horizonSec":60,"virtualClusters":[{"vms":1,"vcpus":2,"kernel":"ep","class":"A","rounds":1}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}
	tl2 := filepath.Join(dir, "tl2.json")
	jl2 := filepath.Join(dir, "series2.jsonl")
	out.Reset()
	if err := run([]string{"-f", spec, "-timeline", tl2, "-jsonl", jl2}, &out); err != nil {
		t.Fatalf("run -f: %v", err)
	}
	assertTimeline(t, tl2)
	assertJSONL(t, jl2)
}

// assertTimeline checks the file parses as trace-event JSON with events.
func assertTimeline(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s is not trace-event JSON: %v", path, err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatalf("%s has no events", path)
	}
}

// assertJSONL checks every line parses and the header is a meta line.
func assertJSONL(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s has only %d lines", path, len(lines))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("%s line %d is not JSON: %v", path, i, err)
		}
		if i == 0 && m["type"] != "meta" {
			t.Fatalf("%s does not start with a meta line: %s", path, ln)
		}
	}
}
