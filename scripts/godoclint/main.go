// Command godoclint fails when a package directory contains exported
// identifiers without godoc comments. scripts/doclint.sh runs it over
// the packages whose exported surface is an API contract other layers
// program against (incremental, obs, jobs, trustnetd); the
// package-comment and graph.View lints in that script cover the rest of
// the tree.
//
// Usage:
//
//	godoclint DIR...
//
// An exported func, method, type, const, var, or interface method must
// carry a doc comment — on the declaration itself or, for grouped
// const/var specs, on the enclosing group. Test files are skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: godoclint DIR...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "godoclint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "godoclint: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and reports
// every undocumented exported identifier on stderr, returning the count.
func lintDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: exported %s %s is undocumented\n", p.Filename, p.Line, kind, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return bad, nil
}

// lintGenDecl checks the specs of a type/const/var declaration. A doc
// comment on the group covers all its specs (the idiomatic form for
// enumerated constants); otherwise each exported spec needs its own.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := d.Tok.String()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
			if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
				lintInterface(it, s.Name.Name, report)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil || d.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

// lintInterface checks that every named method of an exported
// interface carries a doc comment — the method set is the contract.
func lintInterface(it *ast.InterfaceType, typeName string, report func(token.Pos, string, string)) {
	for _, m := range it.Methods.List {
		if len(m.Names) == 0 {
			continue // embedded interface
		}
		for _, name := range m.Names {
			if name.IsExported() && m.Doc == nil && m.Comment == nil {
				report(name.Pos(), "interface method", typeName+"."+name.Name)
			}
		}
	}
}
