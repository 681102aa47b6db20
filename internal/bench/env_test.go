package bench

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"xkblas/internal/metrics"
)

// deprecatedVars are the only exported package variables bench may keep:
// shims for callers that predate Env.
var deprecatedVars = []string{"DefaultParallelism", "GlobalMetrics", "MetricsEnabled", "SimWorkers"}

// TestOnlyDeprecatedPackageVars keeps Env the one owner of run-wide
// settings: no exported package-level variable other than the deprecated
// shims may exist, each shim must say it is deprecated, and the shims are
// read in exactly one function.
func TestOnlyDeprecatedPackageVars(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var exported []string
	readers := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, f, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if !name.IsExported() {
							continue
						}
						exported = append(exported, name.Name)
						if !strings.HasPrefix(d.Doc.Text(), "Deprecated: ") {
							t.Errorf("%s: exported variable %s is not marked Deprecated", f, name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && slices.Contains(deprecatedVars, id.Name) {
						readers[d.Name.Name] = true
					}
					return true
				})
			}
		}
	}
	slices.Sort(exported)
	if !slices.Equal(exported, deprecatedVars) {
		t.Fatalf("exported package variables = %v, want only the deprecated shims %v", exported, deprecatedVars)
	}
	if len(readers) != 1 || !readers["legacyEnv"] {
		t.Fatalf("deprecated variables are read in %v, want legacyEnv only", readers)
	}
}

// TestLegacyEnvFollowsDeprecatedVars: the deprecated drivers run with the
// settings their callers write into the package variables.
func TestLegacyEnvFollowsDeprecatedVars(t *testing.T) {
	oldPar, oldOn, oldSink := DefaultParallelism, MetricsEnabled, GlobalMetrics
	defer func() { DefaultParallelism, MetricsEnabled, GlobalMetrics = oldPar, oldOn, oldSink }()
	reg := metrics.NewRegistry()
	DefaultParallelism, MetricsEnabled, GlobalMetrics = 3, true, reg
	if got := legacyEnv(); got != (Env{Parallel: 3, Metrics: true, Sink: reg}) {
		t.Fatalf("legacyEnv() = %+v", got)
	}
}

// TestBigNCancelled: a cancelled context stops every big-N leg before it
// builds anything, and each leg's error wraps the context's.
func TestBigNCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, quick := range []bool{true, false} {
		start := time.Now()
		res := Env{Ctx: ctx}.BigN(new(bytes.Buffer), quick)
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("quick=%v: cancelled BigN took %v", quick, el)
		}
		if len(res) == 0 {
			t.Fatalf("quick=%v: no legs reported", quick)
		}
		for i, r := range res {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("quick=%v leg %d: Err = %v, want context.Canceled", quick, i, r.Err)
			}
		}
	}
}

// TestRunBigNGemmCancelMidRun: a context cancelled while the streamed
// GEMM runs aborts it through the runtime's cancellation path.
func TestRunBigNGemmCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	r := RunBigNGemm(ctx, BigNConfig{N: 98304, NB: 2048, Window: 1024})
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", r.Err)
	}
}

// TestBigNQuickLiveContextUnchanged: a context that never fires leaves
// the quick big-N report byte-identical to a run without one.
func TestBigNQuickLiveContextUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick big-N experiment twice")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var plain, bounded bytes.Buffer
	Env{}.BigN(&plain, true)
	Env{Ctx: ctx}.BigN(&bounded, true)
	if plain.String() != bounded.String() {
		t.Fatalf("live context changed the report:\n%s\nvs\n%s", plain.String(), bounded.String())
	}
	if strings.Contains(plain.String(), "ERROR") {
		t.Fatalf("quick big-N failed:\n%s", plain.String())
	}
}
