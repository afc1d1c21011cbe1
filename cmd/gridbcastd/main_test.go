package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunConfigErrors pins the daemon's fail-fast paths: they must all
// return descriptive errors before any listener is opened.
func TestRunConfigErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		contains string
	}{
		{"no-platforms", nil, "no platforms configured"},
		{"bad-spec", []string{"-platform", "nameonly"}, "want name=source"},
		{"unloadable", []string{"-platform", "x=missing.json"}, "missing.json"},
		{"bad-random", []string{"-platform", "x=random:1"}, "random:<seed>:<clusters>"},
		{"bad-flag", []string{"-nope"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil || !strings.Contains(err.Error(), c.contains) {
				t.Fatalf("run(%v) = %v, want error containing %q", c.args, err, c.contains)
			}
		})
	}
}

// TestHTTPServerBounds pins the connection bounds: without them a client
// that trickles headers holds a goroutine and a descriptor forever.
func TestHTTPServerBounds(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server %+v: address or handler not wired", srv)
	}
}
