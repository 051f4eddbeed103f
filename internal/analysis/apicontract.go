package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// APIContract enforces the HTTP surface's two documented contracts.
//
// Handler discipline: every handler-shaped function (one taking an
// http.ResponseWriter and an *http.Request) must set Content-Type
// before its first direct write or WriteHeader — Go silently drops
// headers set after the status line — and must report errors through
// the shared JSON error writer, never http.Error's text/plain.
//
// Schema parity: structs marked //ppatc:schema serialize to committed
// or dumped artifacts (flight NDJSON events);
// every json tag they carry must be documented in DATA_SCHEMA.md, so
// adding a field without documenting it is a vet finding, not a silent
// drift.
var APIContract = &Analyzer{
	Name: "apicontract",
	Doc:  "handlers set Content-Type before writing; //ppatc:schema tags match DATA_SCHEMA.md",
	Run:  runAPIContract,
}

// schemaMarker marks a struct whose json tags are cross-checked
// against DATA_SCHEMA.md.
const schemaMarker = "//ppatc:schema"

// schemaTagsCache memoizes the DATA_SCHEMA.md token scan per module
// root — the suite runs many passes over one module.
var (
	schemaTagsMu    sync.Mutex
	schemaTagsCache = map[string]map[string]bool{}
)

func runAPIContract(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				if w := responseWriterParam(pass.Pkg.Info, d); w != nil {
					checkHandlerWrites(pass, d, w)
				}
			case *ast.GenDecl:
				checkSchemaStructs(pass, d)
			}
		}
	}
}

// responseWriterParam returns the http.ResponseWriter parameter object
// of a handler-shaped function (it must also take an *http.Request),
// or nil.
func responseWriterParam(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Type.Params == nil {
		return nil
	}
	var w types.Object
	hasReq := false
	for _, p := range fn.Type.Params.List {
		t := exprType(info, p.Type)
		switch {
		case isResponseWriter(t):
			if len(p.Names) == 1 {
				w = info.Defs[p.Names[0]]
			}
		case isHTTPRequestPtr(t):
			hasReq = true
		}
	}
	if !hasReq {
		return nil
	}
	return w
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "ResponseWriter" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// checkHandlerWrites walks a handler body in source order and verifies
// the Content-Type contract on every direct use of the response
// writer. Delegating writers (writeJSON, writeError, serve* helpers)
// set their own headers and are not direct uses.
func checkHandlerWrites(pass *Pass, fn *ast.FuncDecl, w types.Object) {
	info := pass.Pkg.Info
	usesW := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == w
	}

	// First pass: every position where the handler explicitly sets
	// Content-Type on w's header map.
	var ctSets []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Set" || len(call.Args) < 1 {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		innerSel, ok := inner.Fun.(*ast.SelectorExpr)
		if !ok || innerSel.Sel.Name != "Header" || !usesW(innerSel.X) {
			return true
		}
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if v, err := strconv.Unquote(lit.Value); err == nil && v == "Content-Type" {
				ctSets = append(ctSets, call.Pos())
			}
		}
		return true
	})
	ctSetBefore := func(pos token.Pos) bool {
		for _, p := range ctSets {
			if p < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			switch {
			case funcPkgPath(fn) == "net/http" && fn.Name() == "Error":
				pass.Reportf(call.Pos(),
					"http.Error writes text/plain; use the shared JSON error writer")
				return true
			case funcPkgPath(fn) == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") &&
				len(call.Args) > 0 && usesW(call.Args[0]):
				if !ctSetBefore(call.Pos()) {
					pass.Reportf(call.Pos(),
						"response write before Content-Type is set; the client gets a sniffed type")
				}
				return true
			case funcPkgPath(fn) == "io" && fn.Name() == "WriteString" &&
				len(call.Args) > 0 && usesW(call.Args[0]):
				if !ctSetBefore(call.Pos()) {
					pass.Reportf(call.Pos(),
						"response write before Content-Type is set; the client gets a sniffed type")
				}
				return true
			}
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !usesW(sel.X) {
			return true
		}
		switch sel.Sel.Name {
		case "WriteHeader":
			if !ctSetBefore(call.Pos()) {
				pass.Reportf(call.Pos(),
					"WriteHeader before Content-Type is set; headers set after the status line are dropped")
			}
		case "Write":
			if !ctSetBefore(call.Pos()) {
				pass.Reportf(call.Pos(),
					"response write before Content-Type is set; the client gets a sniffed type")
			}
		}
		return true
	})
}

// checkSchemaStructs cross-checks the json tags of //ppatc:schema
// structs against the field names documented in DATA_SCHEMA.md.
func checkSchemaStructs(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		if !hasSchemaMarker(d.Doc) && !hasSchemaMarker(ts.Doc) {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			pass.Reportf(ts.Pos(), "%s marks %s, which is not a struct", schemaMarker, ts.Name.Name)
			continue
		}
		documented, err := documentedSchemaTags(pass.Pkg.Dir)
		if err != nil {
			pass.Reportf(ts.Pos(), "%s on %s but DATA_SCHEMA.md is unreadable: %v", schemaMarker, ts.Name.Name, err)
			continue
		}
		for _, field := range st.Fields.List {
			name, ok := jsonTagName(field)
			if !ok {
				continue
			}
			if !documented[name] {
				pass.Reportf(field.Pos(),
					"json tag %q of %s is not documented in DATA_SCHEMA.md; document the field or drop it",
					name, ts.Name.Name)
			}
		}
	}
}

// hasSchemaMarker reports whether a doc comment group carries the
// //ppatc:schema marker line.
func hasSchemaMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == schemaMarker || strings.HasPrefix(text, schemaMarker+" ") {
			return true
		}
	}
	return false
}

// jsonTagName extracts the serialized name from a field's json tag.
// Untagged fields, `json:"-"`, and empty names report ok=false.
func jsonTagName(field *ast.Field) (string, bool) {
	if field.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return "", false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", false
	}
	name := tag
	if i := strings.IndexByte(name, ','); i >= 0 {
		name = name[:i]
	}
	if name == "" || name == "-" {
		return "", false
	}
	return name, true
}

// documentedSchemaTags scans DATA_SCHEMA.md at the module root for
// backticked field tokens (`field_name`). Table rows that document a
// group of fields inline — "`queue_wait_ns`, `compute_ns`, …" — parse
// the same as one-field rows, so the extraction is layout-agnostic.
// Results are cached per module root for the life of the process.
func documentedSchemaTags(pkgDir string) (map[string]bool, error) {
	root, err := moduleRoot(pkgDir)
	if err != nil {
		return nil, err
	}
	schemaTagsMu.Lock()
	defer schemaTagsMu.Unlock()
	if tags, ok := schemaTagsCache[root]; ok {
		return tags, nil
	}
	data, err := os.ReadFile(filepath.Join(root, "DATA_SCHEMA.md"))
	if err != nil {
		return nil, err
	}
	tags := make(map[string]bool)
	s := string(data)
	for {
		open := strings.IndexByte(s, '`')
		if open < 0 {
			break
		}
		s = s[open+1:]
		closeIdx := strings.IndexByte(s, '`')
		if closeIdx < 0 {
			break
		}
		token := s[:closeIdx]
		s = s[closeIdx+1:]
		if token != "" && isTagToken(token) {
			tags[token] = true
		}
	}
	schemaTagsCache[root] = tags
	return tags, nil
}

// isTagToken reports whether a backticked token looks like a JSON
// field name (lowercase snake_case), filtering out code snippets and
// file paths the document also backticks.
func isTagToken(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}
