package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

const fixture = `package p

type Conn interface{ Local() int }

type tcpConn struct{}

func (tcpConn) Local() int { return 0 }

type memConn struct{}

func (*memConn) Local() int { return 1 }

type Closer interface{ Shut() }

type file struct{}

func (*file) Shut() {}

type Ring[T any] struct{ v []T }

func (r *Ring[T]) Add(v T) { r.v = append(r.v, v) }

type Kind int

func (k Kind) Error() string { return "" }

func Used() {}

func helperForOtherTests() {}

func planted() {}

func init() {}
`

// nm is what go tool nm prints for a binary that links Used, the ring's
// Add through a shape instantiation (its name has spaces), tcpConn.Local,
// and main.main of the binary built from example.com/cmd/x.
const nm = `  4a1000 T example.com/p.Used
  4a1100 T example.com/p.(*Ring[go.shape.struct { k string; n int }]).Add
  4a1200 T example.com/p.tcpConn.Local
  4a1300 T main.main
  4a1400 R go:itab.*example.com/p.memConn,example.com/p.Conn
         U runtime.morestack
`

func TestPlantedFunctionIsReported(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", fixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{}).Check("example.com/p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	decls := fileDecls(fset, f, "example.com/p", func(s string) string { return s })
	impls, external := interfaceImpls([]*types.Package{pkg})
	for i := range decls {
		decls[i].impls = impls[decls[i].key]
		decls[i].external = external[decls[i].key]
	}
	syms := map[string]bool{}
	if err := parseNM(strings.NewReader(nm), "example.com/cmd/x", syms); err != nil {
		t.Fatal(err)
	}
	if !syms["example.com/cmd/x.main"] || !syms["example.com/p.(*Ring).Add"] {
		t.Fatalf("symbols not normalized: %v", syms)
	}

	allow := map[string]string{"example.com/p.helperForOtherTests": "called by another package's tests"}
	var got []string
	for _, d := range unlinked(decls, syms, allow) {
		got = append(got, d.pos+" "+d.key)
	}
	// memConn.Local is kept by the linked tcpConn.Local (Conn.Local is
	// called), Kind.Error by the built-in error interface; nothing
	// calls Closer.Shut, so its only implementation goes with planted.
	want := []string{
		"p.go:17 example.com/p.(*file).Shut",
		"p.go:31 example.com/p.planted",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unlinked = %q, want %q", got, want)
	}
}

func TestStripBrackets(t *testing.T) {
	for in, want := range map[string]string{
		"p.F":                                    "p.F",
		"p.F[go.shape.int]":                      "p.F",
		"p.(*R[go.shape.struct { a [2]int }]).M": "p.(*R).M",
		"p.G[go.shape.int,go.shape.string]":      "p.G",
	} {
		if got := stripBrackets(in); got != want {
			t.Errorf("stripBrackets(%q) = %q, want %q", in, got, want)
		}
	}
}
