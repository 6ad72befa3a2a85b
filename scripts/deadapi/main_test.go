package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const fixture = "testdata/mod"

func TestVerdicts(t *testing.T) {
	r, err := analyze(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name := range r.dead {
		dead = append(dead, name)
	}
	sort.Strings(dead)
	// Test-only, self-read only, and a method no interface declares are
	// dead; String (fmt.Stringer) and Visit (lib.Visitor) are not.
	want := []string{"lib.Listed", "lib.Recur", "lib.T.Unused", "lib.TestOnly"}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %v, want %v", dead, want)
	}
	if pos := r.dead["lib.TestOnly"]; pos != filepath.Join("internal", "lib", "lib.go")+":8" {
		t.Errorf("lib.TestOnly declared at %q", pos)
	}
	if want := map[string]string{"lib.Pinned": "bench"}; !reflect.DeepEqual(r.pinned, want) {
		t.Errorf("pinned = %v, want %v", r.pinned, want)
	}
}

func TestAllowFile(t *testing.T) {
	r, err := analyze(fixture)
	if err != nil {
		t.Fatal(err)
	}
	const complete = `# every dead export, each with a reason
lib.Listed    fixture: the tests build on it
lib.Recur     documented: a capability
lib.T.Unused  checked: TestSomething checks it
lib.TestOnly  fixture: the tests build on it
`
	for _, tc := range []struct {
		name, allow string
		code        int
		stderr      string
	}{
		{"complete", complete, 0, ""},
		{"unlisted", strings.Replace(complete, "lib.Recur     documented: a capability\n", "", 1), 1, "lib.Recur: dead export"},
		{"reasonless", strings.Replace(complete, "lib.Recur     documented: a capability", "lib.Recur", 1), 1, "lib.Recur: reason must start"},
		{"not a reason", strings.Replace(complete, "documented: a capability", "might be used later", 1), 1, "lib.Recur: reason must start"},
		{"stale, read", complete + "lib.Live  fixture: x\n", 1, "lib.Live: stale"},
		{"stale, gone", complete + "lib.Gone  fixture: x\n", 1, "lib.Gone: stale"},
		{"stale, pinned", complete + "lib.Pinned  fixture: x\n", 1, "lib.Pinned: stale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow := filepath.Join(t.TempDir(), "allow")
			if err := os.WriteFile(allow, []byte(tc.allow), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := report(r, allow, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not say %q:\n%s", tc.stderr, stderr.String())
			}
			if !strings.Contains(stdout.String(), "lib.Pinned") {
				t.Errorf("stdout does not list the pinned export:\n%s", stdout.String())
			}
		})
	}
}
