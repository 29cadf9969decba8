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
	"slices"
	"strings"
	"testing"

	"swisstm/internal/experiments"
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

// TestDesignExperimentTable: DESIGN §4's table lists exactly the
// experiments paperfigs runs, experiments.Names, in that order.
func TestDesignExperimentTable(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start, end := strings.Index(doc, "\n## §4 "), strings.Index(doc, "\n## §5 ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` *\\|").FindAllStringSubmatch(doc[start:end], -1) {
		rows = append(rows, m[1])
	}
	if !slices.Equal(rows, experiments.Names) {
		t.Errorf("DESIGN §4 lists %v, want experiments.Names %v", rows, experiments.Names)
	}
}

// designMaxLines is DESIGN.md's length ceiling. It only ever goes down:
// a change that shortens DESIGN.md lowers it to the new length, and a
// change that needs more room makes it by cutting elsewhere in the file.
const designMaxLines = 1884

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

// engineMaxLines is the ceiling on the non-test Go lines of the four
// engines and their kernel, the directories the Makefile's ENGINE_DIRS
// names (`make loc` prints their sum as engines+kernel). Like
// designMaxLines it only ever goes down, so code added to an engine is
// paid for by code taken out of one.
const engineMaxLines = 2690

// TestEngineLength: the non-test Go files directly under ENGINE_DIRS have
// at most engineMaxLines lines.
func TestEngineLength(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ENGINE_DIRS = (.+)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile sets no ENGINE_DIRS")
	}
	n := 0
	for _, dir := range strings.Fields(string(m[1])) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("ENGINE_DIRS entry %s: no Go files (%v)", dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			n += strings.Count(string(data), "\n")
		}
	}
	if n > engineMaxLines {
		t.Errorf("engines+kernel have %d non-test lines, more than the %d engineMaxLines allows", n, engineMaxLines)
	}
}

// totalMaxLines is the ceiling on the tree's non-test Go lines outside
// benchmark/ and .bench_build/, the total `make loc` prints. Like the
// other ratchets it only ever goes down: each change that deletes code
// lowers it to the new total.
const totalMaxLines = 20444

// TestTotalLength: the non-test Go files outside benchmark/ and
// .bench_build/ have at most totalMaxLines lines.
func TestTotalLength(t *testing.T) {
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || path == ".bench_build" || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		n += strings.Count(string(data), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > totalMaxLines {
		t.Errorf("the tree has %d non-test Go lines outside benchmark/, more than the %d totalMaxLines allows", n, totalMaxLines)
	}
}

// designMaxPRRefs is the most lines of DESIGN.md that may cite a PR by
// number. Like designMaxLines it only ever goes down: DESIGN.md says what
// is and why, and which change did it belongs in CHANGES.md.
const designMaxPRRefs = 1

// TestDesignPRCitations: at most designMaxPRRefs lines of DESIGN.md match
// `PR [0-9]`.
func TestDesignPRCitations(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	prRef := regexp.MustCompile(`PR [0-9]`)
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if prRef.MatchString(line) {
			n++
		}
	}
	if n > designMaxPRRefs {
		t.Errorf("DESIGN.md has %d lines citing a PR, more than the %d designMaxPRRefs allows", n, designMaxPRRefs)
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
