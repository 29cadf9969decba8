package swisstm_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferences: every repo name README.md and DESIGN.md cite in
// backticks exists in the tree — a Go reference `pkg.Ident` or
// `pkg.Type.Member` (test functions included), a repo path (`cmd/...`,
// `internal/...`, also `internal/experiments.Options.Run`), and every
// `make <target>`, also in fenced command blocks. A document that names
// a deleted symbol, file or target fails here, not in a reader's hands.
func TestDocReferences(t *testing.T) {
	pkgs := indexPackages(t)
	targets := makeTargets(t)
	tops := map[string]bool{}
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			tops[e.Name()] = true
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range citations(string(data)) {
			if msg := check(r.text, pkgs, targets, tops); msg != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, r.line, r.text, msg)
			}
		}
	}
}

// designMaxLines is DESIGN.md's length ceiling. It only ever goes down:
// a change that shortens DESIGN.md lowers it to the new length, and a
// change that needs more room makes it by cutting elsewhere in the file.
const designMaxLines = 1916

// TestDesignLength: DESIGN.md has at most designMaxLines lines.
func TestDesignLength(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than the %d designMaxLines allows", n, designMaxLines)
	}
}

// pkgIndex maps a package name (an external _test package under the name
// it tests) to its declared names: "Ident" for a package-level
// declaration, "Type.Member" for a method, struct field or interface
// method. byDir is the same per directory.
type pkgIndex struct {
	byName, byDir map[string]map[string]bool
}

func indexPackages(t *testing.T) pkgIndex {
	t.Helper()
	idx := pkgIndex{map[string]map[string]bool{}, map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		dir := filepath.Dir(path)
		if idx.byDir[dir] == nil {
			idx.byDir[dir] = map[string]bool{}
		}
		if name != "main" && idx.byName[name] == nil {
			idx.byName[name] = map[string]bool{}
		}
		for _, n := range declNames(f) {
			idx.byDir[dir][n] = true
			if name != "main" {
				idx.byName[name][n] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// declNames lists what a file declares, in pkgIndex's form.
func declNames(f *ast.File) []string {
	var names []string
	members := func(typ string, fields *ast.FieldList) {
		for _, fld := range fields.List {
			for _, n := range fld.Names {
				names = append(names, typ+"."+n.Name)
			}
			if len(fld.Names) == 0 { // embedded: the field is named after its type
				if id := baseIdent(fld.Type); id != "" {
					names = append(names, typ+"."+id)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			} else if len(d.Recv.List) == 1 {
				names = append(names, baseIdent(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
					switch ty := s.Type.(type) {
					case *ast.StructType:
						members(s.Name.Name, ty.Fields)
					case *ast.InterfaceType:
						members(s.Name.Name, ty.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}

// baseIdent is the type name under pointers, type arguments and package
// qualifiers: T for *T, T[K], pkg.T.
func baseIdent(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseIdent(x.X)
	case *ast.IndexExpr:
		return baseIdent(x.X)
	case *ast.IndexListExpr:
		return baseIdent(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// makeTargets reads the rule names of the Makefile.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	targets := map[string]bool{}
	rule := regexp.MustCompile(`^([A-Za-z0-9_.-]+):([^=]|$)`)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := rule.FindStringSubmatch(sc.Text()); m != nil {
			targets[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return targets
}

type citation struct {
	text string
	line int
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// goRef is `pkg.Ident` or `pkg.Type.Member`, optionally called.
	goRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z]\w*(?:\.[A-Za-z]\w*)?)(?:\(\))?$`)
)

// citations returns the document's inline code spans (a span may wrap
// onto the next line) and, from fenced blocks, the lines that run make.
func citations(doc string) []citation {
	var out []citation
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			if f := strings.Fields(l); len(f) > 1 && f[0] == "make" {
				out = append(out, citation{f[0] + " " + f[1], i + 1})
			}
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	for _, m := range inlineCode.FindAllStringSubmatchIndex(prose, -1) {
		text := strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")
		out = append(out, citation{text, strings.Count(prose[:m[0]], "\n") + 1})
	}
	return out
}

// check returns why a cited span does not resolve, or "".
func check(text string, idx pkgIndex, targets, tops map[string]bool) string {
	if target, ok := strings.CutPrefix(text, "make "); ok {
		if name := strings.Fields(target)[0]; !targets[name] {
			return "no Makefile target " + name
		}
		return ""
	}
	// A name with an underscore is a benchmark metric (wal.frames_per_op),
	// not a Go reference.
	if m := goRef.FindStringSubmatch(text); m != nil && idx.byName[m[1]] != nil && !strings.Contains(text, "_") {
		if !idx.byName[m[1]][m[2]] {
			return "package " + m[1] + " declares no " + m[2]
		}
		return ""
	}
	for _, tok := range strings.Fields(text) {
		p := strings.TrimPrefix(tok, "./")
		if first, _, _ := strings.Cut(p, "/"); !tops[first] {
			continue
		}
		if msg := checkPath(p, idx); msg != "" {
			return msg
		}
	}
	return ""
}

// checkPath resolves a repo path. A placeholder segment (<name>, *) or a
// trailing /... stops the path at its parent; a last segment dir.Ident
// names a declaration in that package directory.
func checkPath(p string, idx pkgIndex) string {
	segs := strings.Split(strings.TrimSuffix(p, "/"), "/")
	for i, s := range segs {
		if s == "..." || strings.ContainsAny(s, "<*") {
			segs = segs[:i]
			break
		}
	}
	p = filepath.Join(segs...)
	if _, err := os.Stat(p); err == nil {
		return ""
	}
	dir, last := filepath.Split(p)
	if pkg, ident, ok := strings.Cut(last, "."); ok {
		if names := idx.byDir[filepath.Join(dir, pkg)]; names != nil {
			if !names[ident] {
				return filepath.Join(dir, pkg) + " declares no " + ident
			}
			return ""
		}
	}
	return "no such path " + p
}
