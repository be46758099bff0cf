package nearclique_test

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

// The design docs name code in backticks. These tests keep those names
// true: a backticked token shaped like a Go identifier must name
// something declared in the module, or the doc has gone stale.

// stdNames are backticked standard-library names the docs use bare. The
// check cannot tell them from module names by shape alone.
var stdNames = map[string]bool{
	"TrailingZeros64": true, // math/bits
	"WaitGroup.Wait":  true, // sync
	"Wait":            true, // sync.WaitGroup, sync.Cond
	"Unlock":          true, // sync.Mutex
}

// declIndex holds every package-level name, method and struct field
// declared in the module's Go files, tests included.
type declIndex struct {
	// pkgs maps a package name to its names, with methods and fields
	// also under "T.M".
	pkgs map[string]map[string]bool
	// all is the union of every package's set.
	all map[string]bool
}

func (ix *declIndex) add(pkg, name string) {
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
	}
	ix.pkgs[pkg][name] = true
	ix.all[name] = true
}

// indexModule parses every .go file under root, skipping testdata and
// hidden directories (lint fixtures declare packages of their own).
func indexModule(t *testing.T, root string) *declIndex {
	t.Helper()
	ix := &declIndex{pkgs: map[string]map[string]bool{}, all: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				ix.add(pkg, d.Name.Name)
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if recv := recvTypeName(d.Recv.List[0].Type); recv != "" {
						ix.add(pkg, recv+"."+d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ix.add(pkg, s.Name.Name)
						ix.addMembers(pkg, s.Name.Name, s.Type)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							ix.add(pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// addMembers records a struct's fields (embedded ones under their type
// name) and an interface's methods, bare and as "T.M".
func (ix *declIndex) addMembers(pkg, typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, f := range fields.List {
		names := f.Names
		if len(names) == 0 {
			if embedded := recvTypeName(f.Type); embedded != "" {
				names = []*ast.Ident{{Name: embedded}}
			}
		}
		for _, n := range names {
			ix.add(pkg, n.Name)
			ix.add(pkg, typ+"."+n.Name)
		}
	}
}

// recvTypeName is the bare type name of a receiver or embedded field:
// T, *T, T[P] or pkg.T.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

var (
	// qualifiedToken is pkg.Name, pkg.T.M or pkg.(*T).M, with an
	// optional trailing "()".
	qualifiedToken = regexp.MustCompile(`^([a-z][a-z0-9]*)\.(?:\(\*?([A-Za-z_]\w*)\)\.([A-Za-z_]\w*)|([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?)(?:\(\))?$`)
	// camelToken is a bare exported identifier, or T.M on one, with an
	// optional trailing "()".
	camelToken = regexp.MustCompile(`^([A-Z]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)
	// fileToken is a file name, which may look like pkg.Name.
	fileToken = regexp.MustCompile(`\.(go|json|md|ncsr|edges|yml|sh|txt|mod)$`)
)

// stale reports whether token has a checked shape and names nothing
// declared in the module.
func (ix *declIndex) stale(token string) bool {
	if fileToken.MatchString(token) || stdNames[token] {
		return false
	}
	if m := qualifiedToken.FindStringSubmatch(token); m != nil {
		names, ok := ix.pkgs[m[1]]
		if !ok {
			return false // not a module package: std lib or prose
		}
		switch {
		case m[2] != "":
			return !names[m[2]+"."+m[3]]
		case m[5] != "":
			return !names[m[4]+"."+m[5]]
		default:
			return !names[m[4]]
		}
	}
	if m := camelToken.FindStringSubmatch(token); m != nil {
		if m[2] != "" {
			return !ix.all[m[1]+"."+m[2]]
		}
		return !ix.all[m[1]]
	}
	return false
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// docTokens returns each inline code span of a markdown file with its
// line number, skipping fenced code blocks.
func docTokens(t *testing.T, path string) (tokens []string, lines []int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	fenced := false
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
			tokens = append(tokens, m[1])
			lines = append(lines, n)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tokens, lines
}

func TestDocIdentifiersExist(t *testing.T) {
	ix := indexModule(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		tokens, lines := docTokens(t, doc)
		for i, tok := range tokens {
			if ix.stale(tok) {
				t.Errorf("%s:%d: `%s` names nothing declared in the module", doc, lines[i], tok)
			}
		}
	}
}

func TestDocIdentifierCheckFlagsStaleNames(t *testing.T) {
	ix := indexModule(t, ".")
	for _, tc := range []struct {
		token string
		stale bool
	}{
		// The search entry point's name before it was renamed, split so
		// that a grep for the old name finds only the change log.
		{"core.Search" + "FrontierContext", true},
		{"core.SearchCachedContext", false},
		{"core.max_component", true},
		{"graph.(*Graph).T", false},
		{"graph.(*Graph).NoSuchMethod", true},
		{"congest.IDWalk.Walk", false},
		{"flight.KindRound", false},
		{"costmodel.Features.Engine", false},
		{"Solver.Search()", false},
		{"Solver.NoSuchMethod", true},
		{"ErrNotFound", false},
		{"NoSuchIdentifier", true},
		{"solver.go", false},           // a file name
		{"COSTMODEL.json", false},      // a file name
		{"strconv.FormatFloat", false}, // not a module package
		{"engine=auto", false},         // prose, not an identifier
		{"TrailingZeros64", false},     // allowlisted std-lib name
	} {
		if got := ix.stale(tc.token); got != tc.stale {
			t.Errorf("stale(%q) = %v, want %v", tc.token, got, tc.stale)
		}
	}
}
