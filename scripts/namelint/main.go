// Command namelint checks every metric name, metric label, and
// structured log key literal in the tree against obs.ValidName — the
// shared naming rule for the Prometheus exposition and the text/JSON
// encodings of log/slog's handlers. A name that fails the rule would either be rejected at
// registration (metrics, a runtime panic) or force quoting and escaping
// in the exposition (log keys), so the gate catches both at review time.
//
// Usage:
//
//	go run ./scripts/namelint ./cmd ./internal
//
// Each argument is walked recursively; only non-test .go files are
// linted. Exit status 1 means at least one bad name was found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// metricCtors maps registry constructor names to how many leading
// string arguments are names to check: the metric name itself, and for
// the Vec variants every label name after the help string.
var metricCtors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

// logMethods are *slog.Logger's leveled methods, whose variadic tail is
// key/value pairs: string literals at key positions must be valid names.
// The match is by method name and call shape, not by receiver type.
var logMethods = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true,
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := lintFile(path)
			bad += n
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "namelint: %v\n", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "namelint: %d bad name(s)\n", bad)
		os.Exit(1)
	}
}

// lintFile parses one source file and reports every invalid metric
// name, label, or log-key literal it contains.
func lintFile(path string) (bad int, err error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return 0, err
	}
	report := func(pos token.Pos, kind, name string) {
		fmt.Fprintf(os.Stderr, "%s: invalid %s %q\n", fset.Position(pos), kind, name)
		bad++
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case metricCtors[sel.Sel.Name]:
			// reg.Counter(name, help) / reg.CounterVec(name, help, labels...)
			if len(call.Args) > 0 {
				if name, ok := stringLit(call.Args[0]); ok && !obs.ValidName(name) {
					report(call.Args[0].Pos(), "metric name", name)
				}
			}
			if strings.HasSuffix(sel.Sel.Name, "Vec") {
				for _, arg := range call.Args[2:] {
					if label, ok := stringLit(arg); ok && !obs.ValidName(label) {
						report(arg.Pos(), "metric label", label)
					}
				}
			}
		case logMethods[sel.Sel.Name]:
			// logger.Info(msg, k1, v1, k2, v2, ...): literal keys sit at
			// the odd argument positions after the message. Requiring a
			// literal message distinguishes leveled log calls from
			// unrelated methods named Error (e.g. http.Error(w, msg, code)).
			if len(call.Args) == 0 {
				return true
			}
			if _, ok := stringLit(call.Args[0]); !ok {
				return true
			}
			for i := 1; i < len(call.Args); i += 2 {
				if key, ok := stringLit(call.Args[i]); ok && !obs.ValidName(key) {
					report(call.Args[i].Pos(), "log key", key)
				}
			}
		}
		return true
	})
	return bad, nil
}

// stringLit unwraps a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
