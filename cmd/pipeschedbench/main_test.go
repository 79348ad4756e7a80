package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipesched/internal/loadgen"
	"pipesched/internal/service"
)

func TestBenchFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no-targets", nil, 2},
		{"unknown-flag", []string{"-bogus"}, 2},
		{"positional-args", []string{"-targets", "http://x", "stray"}, 2},
		{"bad-zipf-s", []string{"-targets", "http://x", "-zipf-s", "0.5"}, 2},
		{"bad-zipf-v", []string{"-targets", "http://x", "-zipf-v", "0"}, 2},
		{"bad-family", []string{"-targets", "http://x", "-family", "E9"}, 2},
		{"negative-requests", []string{"-targets", "http://x", "-requests", "-1"}, 2},
		{"zero-workers", []string{"-targets", "http://x", "-workers", "0"}, 2},
		{"help", []string{"-h"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := realMain(tc.args, &out, &errOut); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstderr: %s", got, tc.want, errOut.String())
			}
			if tc.want == 2 && !strings.Contains(strings.ToLower(errOut.String()), "usage") {
				t.Fatalf("usage-class failure printed no usage hint:\n%s", errOut.String())
			}
		})
	}
}

// TestBenchAgainstService drives the generator end to end against an
// in-process service and parses the -json report.
func TestBenchAgainstService(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Options{}))
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := realMain([]string{
		"-targets", ts.URL,
		"-requests", "60",
		"-keys", "8",
		"-seed", "3",
		"-stages", "4", "-procs", "3",
		"-workers", "4",
		"-json",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Sent != 60 || rep.Errors != 0 || rep.Targets != 1 {
		t.Fatalf("report: %+v", rep)
	}
	// 60 Zipf-skewed requests over 8 keys must repeat: hits present.
	if rep.Tiers["hit"] == 0 || rep.Tiers["miss"] == 0 {
		t.Fatalf("tiers = %v, want both hits and misses", rep.Tiers)
	}
	if rep.QPS <= 0 || rep.Latency.MaxMS <= 0 {
		t.Fatalf("throughput/latency not measured: %+v", rep)
	}
}

// TestBenchVerifyAgainstReference: -verify against an identical service
// passes; the text report prints.
func TestBenchVerifyAgainstReference(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Options{}))
	defer ts.Close()
	ref := httptest.NewServer(service.New(service.Options{}))
	defer ref.Close()

	var out, errOut bytes.Buffer
	code := realMain([]string{
		"-targets", ts.URL,
		"-verify", ref.URL,
		"-requests", "30",
		"-keys", "6",
		"-stages", "4", "-procs", "3",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "mismatches 0") {
		t.Fatalf("text report missing mismatch count:\n%s", out.String())
	}
}

// TestBenchDirtyRunExitsOne: server errors surface as exit 1, after the
// report has printed.
func TestBenchDirtyRunExitsOne(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	var out, errOut bytes.Buffer
	code := realMain([]string{
		"-targets", ts.URL,
		"-requests", "5",
		"-keys", "2",
		"-stages", "4", "-procs", "3",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(out.String(), "errors    5") {
		t.Fatalf("report not printed before the dirty exit:\n%s", out.String())
	}
}

// TestBenchMismatchExitsOne: a diverging verify target is a dirty run.
func TestBenchMismatchExitsOne(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("one"))
	}))
	defer ts.Close()
	ref := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("two"))
	}))
	defer ref.Close()

	var out, errOut bytes.Buffer
	code := realMain([]string{
		"-targets", ts.URL,
		"-verify", ref.URL,
		"-requests", "4",
		"-keys", "2",
		"-stages", "4", "-procs", "3",
	}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "mismatches") {
		t.Fatalf("dirty exit did not mention mismatches:\n%s", errOut.String())
	}
}
