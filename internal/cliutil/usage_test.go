package cliutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// usageFlag matches a flag name in a Usage line: a '-' that starts a
// word or follows '['.
var usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)

// usageFlags returns the flags named in a package doc's Usage block: the
// indented lines after the "Usage:" line, up to the next prose line.
func usageFlags(doc string) (flags []string, found bool) {
	_, block, found := strings.Cut(doc, "Usage:\n")
	for _, line := range strings.Split(block, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
			flags = append(flags, m[1])
		}
	}
	return flags, found
}

// registeredFlags returns the names passed to the flag package's
// registration functions anywhere in f.
func registeredFlags(f *ast.File) []string {
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "Var":
			arg = 1
		case "String", "Int", "Int64", "Uint64", "Float64", "Bool", "Duration":
		default:
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags = append(flags, name)
			}
		}
		return true
	})
	return flags
}

// TestUsageBlocksMatchFlags holds each command's package-doc Usage block
// to the set of flags its main registers: a flag the block omits is
// invisible to readers of `go doc`, and one it names that main lacks
// does not exist.
func TestUsageBlocksMatchFlags(t *testing.T) {
	mains, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (err %v)", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		documented, found := usageFlags(f.Doc.Text())
		if !found {
			t.Errorf("%s: package doc has no Usage: block", cmd)
			continue
		}
		registered := registeredFlags(f)
		if len(registered) == 0 {
			t.Errorf("%s: main registers no flags", cmd)
			continue
		}
		slices.Sort(documented)
		documented = slices.Compact(documented)
		slices.Sort(registered)
		for _, name := range registered {
			if _, ok := slices.BinarySearch(documented, name); !ok {
				t.Errorf("%s: -%s is registered but missing from the Usage block", cmd, name)
			}
		}
		for _, name := range documented {
			if _, ok := slices.BinarySearch(registered, name); !ok {
				t.Errorf("%s: Usage block names -%s, which main does not register", cmd, name)
			}
		}
	}
}
