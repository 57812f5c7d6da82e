package authserver

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/udpengine"
)

// TestStatsWritesAreAtomic parses every non-test file of the package and
// checks that the counters move only by atomic adds. Outside the Stats
// snapshot, a counter — a field of the server's stats, or of a *Stats
// parameter — appears only as &counter, the first argument of
// atomic.AddInt64; the stats struct itself only as &s.stats handed to a
// function (statClass.bump), whose *Stats parameter is held to the same
// rule. No ++, no assignment, no lock: a query takes none to be counted.
func TestStatsWritesAreAtomic(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv != nil && fd.Name.Name == "Stats" {
					continue
				}
				params := statsParams(fd)
				var stack []ast.Node
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					parent := ast.Node(nil)
					if len(stack) > 0 {
						parent = stack[len(stack)-1]
					}
					grand := ast.Node(nil)
					if len(stack) > 1 {
						grand = stack[len(stack)-2]
					}
					stack = append(stack, n)
					bad := ""
					switch n := n.(type) {
					case *ast.SelectorExpr:
						switch {
						case isStatsStruct(n.X, params): // a counter
							if !addressedInto(n, parent, grand, isAtomicAdd) {
								bad = "counter " + n.Sel.Name + " used other than by atomic.AddInt64(&counter, n)"
							} else {
								adds++
							}
						case n.Sel.Name == "stats": // the server's whole struct
							if _, field := parent.(*ast.SelectorExpr); !field && !addressedInto(n, parent, grand, isCall) {
								bad = "s.stats used other than as &s.stats.Counter or &s.stats passed on"
							}
						}
					case *ast.Ident:
						if params[n.Name] {
							if sel, ok := parent.(*ast.SelectorExpr); !ok || sel.X != n {
								bad = "*Stats parameter " + n.Name + " used whole"
							}
						}
					}
					if bad != "" {
						t.Errorf("%s: %s in %s", fset.Position(n.Pos()), bad, fd.Name.Name)
					}
					return true
				})
			}
		}
	}
	if adds < 20 {
		t.Errorf("found only %d atomic counter adds: has the idiom changed under this test?", adds)
	}
}

// statsParams names the receiver and parameters of fd typed *Stats.
func statsParams(fd *ast.FuncDecl) map[string]bool {
	names := map[string]bool{}
	for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			if star, ok := field.Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Stats" {
					for _, n := range field.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// isStatsStruct reports x as s.stats or a *Stats parameter.
func isStatsStruct(x ast.Expr, params map[string]bool) bool {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "stats"
	case *ast.Ident:
		return params[x.Name]
	}
	return false
}

// addressedInto reports n as &n, the first argument of a call ok accepts.
func addressedInto(n, parent, grand ast.Node, ok func(*ast.CallExpr) bool) bool {
	u, isAddr := parent.(*ast.UnaryExpr)
	call, isCall := grand.(*ast.CallExpr)
	return isAddr && u.Op == token.AND && u.X == n && isCall && len(call.Args) > 0 && call.Args[0] == u && ok(call)
}

func isAtomicAdd(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "atomic" && sel.Sel.Name == "AddInt64"
}

func isCall(*ast.CallExpr) bool { return true }

// TestServeWireRaceHammer: a 4-worker engine serves ServeWire while the
// zone is re-installed, overload protection is swapped in and out, and
// Stats and Collect are read, all at once. Under -race it covers the
// atomics that took the server mutex's place; every query must still be
// answered and counted, since no protection installed here drops any.
func TestServeWireRaceHammer(t *testing.T) {
	s := testServer(t)
	eng, err := udpengine.New(udpengine.Config{
		Addr: "127.0.0.1:0", Workers: 4, Batch: 8,
		Handler: s.DatagramHandler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	loop := func(step func(i int)) {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
				step(i)
			}
		}()
	}
	z := s.Zone()
	loop(func(int) { s.SetZone(z) })
	loop(func(i int) {
		if i%2 == 0 {
			s.SetOverload(OverloadConfig{}) // nothing installed
			return
		}
		// Installed but generous: the gate, the limiter and RRL all run,
		// and none of them drops a query at this rate.
		s.SetOverload(OverloadConfig{MaxInflight: 64, QueueDeadline: time.Second,
			PerClientQPS: 1e6, RRLRate: 1e6})
	})
	loop(func(int) {
		_ = s.Stats()
		s.Collect(obs.NewRegistry())
	})

	const clients, each = 4, 50
	names := []dnswire.Name{"www.example.com.", "org.", "foo.bogustld.", "."}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("udp", eng.LocalAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			for i := 0; i < each; i++ {
				q := query(names[(c+i)%len(names)], dnswire.TypeNS)
				q.ID = uint16(c<<8 | i)
				wire, _ := q.Pack()
				if _, err := conn.Write(wire); err != nil {
					t.Error(err)
					return
				}
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := conn.Read(buf)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				var m dnswire.Message
				if err := m.Unpack(buf[:n]); err != nil || m.ID != q.ID {
					t.Errorf("client %d query %d: reply %v (%v)", c, i, m.ID, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if st := s.Stats(); st.Queries != clients*each || st.PackedHits+st.PackedMisses != clients*each {
		t.Errorf("%d queries answered: Queries %d, hits %d + misses %d", clients*each, st.Queries, st.PackedHits, st.PackedMisses)
	}
}
