package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A rule says how many times a construct may occur in the files it covers.
type rule struct {
	id    string   // names the rule and its fixture directory testdata/<id>
	since string   // the change that established the invariant
	paths []string // module-relative directories (recursive) or files; "." is the whole module
	skip  []string // directories under paths left out
	files scope    // which files under paths are checked
	match matcher
	want  int // occurrences the module must hold: 0 forbids, 1 pins a single caller
	why   string
}

type scope int

const (
	sourceFiles scope = iota // non-test Go files
	goFiles                  // Go files, tests included
	anyFile                  // every file; a non-Go file is matched line by line
)

// file is one checked file: a parsed Go file, or the lines of another.
type file struct {
	path  string // slash-separated, relative to the checked root
	src   []byte
	lines []string
	fset  *token.FileSet
	ast   *ast.File         // nil for a non-Go file
	names map[string]string // import path -> the name the file refers to it by ("." for a dot import)
}

// A matcher returns the lines of f on which its construct occurs.
type matcher func(f *file) []int

// word matches identifiers (declared or used, selectors included) and
// string literal contents against the unanchored expression, as a grep
// over the code would, and every line of a non-Go file.
func word(expr string) matcher {
	re := regexp.MustCompile(expr)
	return func(f *file) []int {
		if f.ast == nil {
			var lines []int
			for i, l := range f.lines {
				if re.MatchString(l) {
					lines = append(lines, i+1)
				}
			}
			return lines
		}
		return f.find(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				return re.MatchString(n.Name)
			case *ast.BasicLit:
				s, err := strconv.Unquote(n.Value)
				return n.Kind == token.STRING && err == nil && re.MatchString(s)
			}
			return false
		})
	}
}

// qual matches a reference to a name the package at importPath exports,
// whatever name the file imports the package under.
func qual(importPath, name string) matcher {
	re := anchored(name)
	return func(f *file) []int {
		local, ok := f.names[importPath]
		if !ok {
			return nil
		}
		sel := map[*ast.Ident]bool{}
		return f.find(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				x, ok := n.X.(*ast.Ident)
				return ok && x.Name == local && re.MatchString(n.Sel.Name)
			case *ast.Ident:
				return local == "." && !sel[n] && re.MatchString(n.Name)
			}
			return false
		})
	}
}

// imports matches the import of a package whose path matches, under any
// name (a blank or dot import included).
func imports(importPath string) matcher {
	re := anchored(importPath)
	return func(f *file) []int {
		return f.find(func(n ast.Node) bool {
			s, ok := n.(*ast.ImportSpec)
			if !ok {
				return false
			}
			p, err := strconv.Unquote(s.Path.Value)
			return err == nil && re.MatchString(p)
		})
	}
}

// call matches a call of a function or method whose name matches.
func call(name string) matcher {
	re := anchored(name)
	return func(f *file) []int {
		return f.find(func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			switch fn := c.Fun.(type) {
			case *ast.Ident:
				return re.MatchString(fn.Name)
			case *ast.SelectorExpr:
				return re.MatchString(fn.Sel.Name)
			}
			return false
		})
	}
}

// nilCmp matches an == or != comparison with nil whose other operand's
// source text matches the unanchored expression.
func nilCmp(expr string) matcher {
	re := regexp.MustCompile(expr)
	return func(f *file) []int {
		return f.find(func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return false
			}
			x := b.X
			if isNil(x) {
				x = b.Y
			} else if !isNil(b.Y) {
				return false
			}
			return re.Match(f.src[f.fset.Position(x.Pos()).Offset:f.fset.Position(x.End()).Offset])
		})
	}
}

// inFileWith matches m only in files where guard matches too.
func inFileWith(guard, m matcher) matcher {
	return func(f *file) []int {
		if len(guard(f)) == 0 {
			return nil
		}
		return m(f)
	}
}

// anyOf matches wherever any of ms does.
func anyOf(ms ...matcher) matcher {
	return func(f *file) []int {
		var lines []int
		for _, m := range ms {
			lines = append(lines, m(f)...)
		}
		return lines
	}
}

func anchored(name string) *regexp.Regexp { return regexp.MustCompile(`^(?:` + name + `)$`) }

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// find returns the line of every node of a Go file that hit accepts.
func (f *file) find(hit func(ast.Node) bool) []int {
	if f.ast == nil {
		return nil
	}
	var lines []int
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if n != nil && hit(n) {
			lines = append(lines, f.fset.Position(n.Pos()).Line)
		}
		return true
	})
	return lines
}

// load reads every file under root that a rule may cover.
func load(root string) ([]*file, error) {
	var files []*file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && skipDir(p, rel, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f := &file{path: rel, src: src, lines: strings.Split(string(src), "\n")}
		if strings.HasSuffix(rel, ".go") {
			if err := f.parse(); err != nil {
				return err
			}
		}
		files = append(files, f)
		return nil
	})
	return files, err
}

// skipDir leaves out test data, hidden directories other than .github,
// nested modules and this package.
func skipDir(p, rel, name string) bool {
	if name == "testdata" || rel == "internal/archtest" || (strings.HasPrefix(name, ".") && name != ".github") {
		return true
	}
	_, err := os.Stat(filepath.Join(p, "go.mod"))
	return err == nil
}

func (f *file) parse() error {
	f.fset = token.NewFileSet()
	var err error
	if f.ast, err = parser.ParseFile(f.fset, f.path, f.src, parser.SkipObjectResolution); err != nil {
		return err
	}
	f.names = map[string]string{}
	for _, im := range f.ast.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			return err
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		f.names[p] = name
	}
	return nil
}

// covers reports whether the rule checks f.
func (r rule) covers(f *file) bool {
	switch r.files {
	case sourceFiles:
		if !strings.HasSuffix(f.path, ".go") || strings.HasSuffix(f.path, "_test.go") {
			return false
		}
	case goFiles:
		if !strings.HasSuffix(f.path, ".go") {
			return false
		}
	}
	under := func(dirs []string) bool {
		for _, d := range dirs {
			if d == "." || f.path == d || strings.HasPrefix(f.path, d+"/") {
				return true
			}
		}
		return false
	}
	return under(r.paths) && !under(r.skip)
}

// A hit is one line on which a rule's construct occurs.
type hit struct {
	path string
	line int
}

// check returns every line of files on which the rule's construct occurs,
// once per occurrence.
func (r rule) check(files []*file) []hit {
	var hits []hit
	for _, f := range files {
		if r.covers(f) {
			for _, l := range r.match(f) {
				hits = append(hits, hit{f.path, l})
			}
		}
	}
	return hits
}

func show(files []*file, hits []hit) string {
	src := map[string]*file{}
	for _, f := range files {
		src[f.path] = f
	}
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "\n\t%s:%d: %s", h.path, h.line, strings.TrimSpace(src[h.path].lines[h.line-1]))
	}
	return b.String()
}

func loadOrFail(t *testing.T, root string) []*file {
	t.Helper()
	files, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no files", root)
	}
	return files
}

// TestArchitecture checks every rule over the module.
func TestArchitecture(t *testing.T) {
	files := loadOrFail(t, filepath.Join("..", ".."))
	for _, r := range rules {
		t.Run(r.id, func(t *testing.T) {
			if hits := r.check(files); len(hits) != r.want {
				t.Errorf("want %d occurrence(s), found %d:%s\nrule (since %q): %s",
					r.want, len(hits), show(files, hits), r.since, r.why)
			}
		})
	}
}

// wantMarker ends a fixture line on which a rule must fire.
var wantMarker = regexp.MustCompile(`(//|#) want$`)

// TestRulesFire proves no rule is vacuous or loose: over testdata/<id>,
// the row fires on exactly the lines marked "// want" (or "# want"),
// which hold every construct the row's invariant forbids. Every fixture
// marks at least one line, and a counted row must find more occurrences
// than it allows, so an emptied fixture fails. The aliased-import fixture
// reaches guarded packages under other names.
func TestRulesFire(t *testing.T) {
	fixtures := map[string][]string{
		"aliased-import": {"reference-kernels-off-execution-path", "readers-never-lock", "one-parameter-count"},
	}
	byID := map[string]rule{}
	for _, r := range rules {
		if _, dup := byID[r.id]; dup {
			t.Fatalf("duplicate rule id %s", r.id)
		}
		byID[r.id] = r
		fixtures[r.id] = []string{r.id}
	}
	for dir, ids := range fixtures {
		files := loadOrFail(t, filepath.Join("testdata", dir))
		want := map[hit]bool{}
		for _, f := range files {
			for i, l := range f.lines {
				if wantMarker.MatchString(strings.TrimSpace(l)) {
					want[hit{f.path, i + 1}] = true
				}
			}
		}
		if len(want) == 0 {
			t.Errorf("testdata/%s: no line is marked", dir)
		}
		got := map[hit]bool{}
		for _, id := range ids {
			r, ok := byID[id]
			if !ok {
				t.Fatalf("testdata/%s: no rule %s", dir, id)
			}
			hits := r.check(files)
			if len(hits) <= r.want {
				t.Errorf("testdata/%s: rule %s does not fire", dir, id)
			}
			for _, h := range hits {
				got[h] = true
			}
		}
		for h := range want {
			if !got[h] {
				t.Errorf("testdata/%s: %s:%d is marked but no rule fires on it", dir, h.path, h.line)
			}
		}
		for h := range got {
			if !want[h] {
				t.Errorf("testdata/%s: %s:%d fires but is not marked", dir, h.path, h.line)
			}
		}
	}
}

// TestCommentsNeverMatch checks a fixture that names every forbidden
// construct in comments only, beside exactly the callers the counted rules
// want: no rule fires.
func TestCommentsNeverMatch(t *testing.T) {
	files := loadOrFail(t, filepath.Join("testdata", "comments-only"))
	for _, r := range rules {
		if hits := r.check(files); len(hits) != r.want {
			t.Errorf("rule %s: want %d occurrence(s), found %d:%s", r.id, r.want, len(hits), show(files, hits))
		}
	}
}
