package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// transcriptScope is where the full determinism contract applies: every
// package whose execution contributes to a round transcript, which must
// be byte-identical across engines, GOMAXPROCS, and batch shape.
var transcriptScope = []string{
	"nearclique",
	"internal/congest",
	"internal/core",
	"internal/refine",
	"internal/graph",
	"internal/shadow",
}

// emissionScope additionally gets the map-iteration-order check: these
// packages emit JSON aggregates (report records, /statz, the /metricsz
// exposition, BENCH_serve.json) and merged errors whose bytes must not
// depend on Go's randomized map order.
var emissionScope = []string{
	"internal/report",
	"internal/server",
	"internal/flight",
	"internal/obs",
	"cmd/loadgen",
}

// DeterminismAnalyzer enforces the repo's determinism contract
// (DESIGN.md §12):
//
//   - no unordered map iteration whose body performs order-sensitive
//     writes to state outside the loop (appends, float accumulation,
//     last-writer-wins stores, channel sends, ordered emission) unless
//     the written collection is sorted immediately after the loop;
//   - in transcript-affecting packages, no wall-clock reads (time.Now,
//     time.Since, time.Until) and no import of math/rand, math/rand/v2,
//     or crypto/rand — randomness must route through the counter-based
//     RNG bank (internal/congest/rng.go), which is addressable by
//     (seed, node, counter) and therefore schedule-independent;
//   - in transcript-affecting packages, no select over two or more
//     channels inside a loop: which ready case fires is
//     scheduler-dependent, so a round loop draining multiple channels
//     cannot produce a stable transcript.
var DeterminismAnalyzer = &Analyzer{
	Name:     "determinism",
	Doc:      "flags map-iteration-order leaks, wall-clock/global-RNG use, and multi-channel selects that can break byte-identical round transcripts",
	Packages: append(append([]string(nil), transcriptScope...), emissionScope...),
	Run:      runDeterminism,
}

func runDeterminism(pass *Pass) error {
	transcript := pass.InScope(transcriptScope...)
	if transcript {
		checkForbiddenImports(pass)
	}
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		if transcript && !inTestFile(pass, fd.Pos()) {
			checkWallClock(pass, fd.Body)
			checkSelects(pass, fd.Body, false)
		}
		checkMapRangesIn(pass, fd.Body)
	})
	return nil
}

// forbiddenRandImports are the ambient randomness sources that bypass the
// counter-based RNG bank. The bank itself (internal/congest/rng.go and
// friends) carries //nclint:allow directives — it is the one place the
// wrapper types may come from.
var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

func checkForbiddenImports(pass *Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			// Tests may use ambient randomness to generate inputs; the
			// contract binds the transcript-producing code itself.
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !forbiddenRandImports[path] {
				continue
			}
			pass.Reportf(imp.Pos(), "import of %s in a transcript-affecting package: randomness must come from the counter-based RNG bank (internal/congest/rng.go), addressable by (seed, node, counter)", path)
		}
	}
}

func checkWallClock(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [...]string{"Now", "Since", "Until"} {
			if isPkgFunc(pass.TypesInfo, call, "time", name) {
				pass.Reportf(call.Pos(), "call to time.%s in a transcript-affecting package: wall-clock reads are schedule-dependent and must stay outside transcript state (Metrics wall-clock fields are computed by callers)", name)
			}
		}
		return true
	})
}

// checkSelects flags select statements with two or more communication
// cases inside a loop: when several channels are ready the runtime picks
// uniformly at random, so a round loop draining a multi-way select emits
// a schedule-dependent transcript.
func checkSelects(pass *Pass, n ast.Node, inLoop bool) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		checkSelectChildren(pass, s.Body, true)
		return
	case *ast.RangeStmt:
		checkSelectChildren(pass, s.Body, true)
		return
	case *ast.FuncLit:
		// A literal's body runs on its own goroutine or call frame; the
		// enclosing loop's round structure does not apply to it directly.
		checkSelectChildren(pass, s.Body, false)
		return
	case *ast.SelectStmt:
		comms := 0
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms++
			}
		}
		if inLoop && comms >= 2 {
			pass.Reportf(s.Pos(), "select over %d channels inside a loop in a transcript-affecting package: the ready case is chosen at random, so round order is scheduler-dependent", comms)
		}
	}
	checkSelectChildren(pass, n, inLoop)
}

func checkSelectChildren(pass *Pass, n ast.Node, inLoop bool) {
	children := childNodes(n)
	for _, c := range children {
		checkSelects(pass, c, inLoop)
	}
}

// childNodes returns n's immediate AST children.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

// --- unordered map iteration -------------------------------------------

// mapFinding is one candidate diagnostic from a map-range body; findings
// attached to a variable object are dropped when that variable is sorted
// immediately after the loop.
type mapFinding struct {
	obj types.Object // written variable, nil when not suppressible by sorting
	pos token.Pos
	msg string
}

// checkMapRangesIn walks every statement list so each map range can see
// the statements that follow it (for the sorted-after-loop suppression).
func checkMapRangesIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch s := n.(type) {
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		default:
			return true
		}
		for i, stmt := range list {
			rs := asRangeStmt(stmt)
			if rs == nil {
				continue
			}
			checkMapRange(pass, rs, list[i+1:])
		}
		return true
	})
}

func asRangeStmt(stmt ast.Stmt) *ast.RangeStmt {
	for {
		switch s := stmt.(type) {
		case *ast.RangeStmt:
			return s
		case *ast.LabeledStmt:
			stmt = s.Stmt
		default:
			return nil
		}
	}
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := pass.TypesInfo
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	rangeVars := make(map[types.Object]bool)
	for _, e := range [...]ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := useObj(info, id); o != nil {
				rangeVars[o] = true
			}
		}
	}

	var findings []mapFinding
	guarded := guardedMinMaxAssigns(info, rs.Body)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				if f := classifyWrite(info, rs, rangeVars, s, lhs, rhs, guarded); f != nil {
					findings = append(findings, *f)
				}
			}
		case *ast.SendStmt:
			findings = append(findings, mapFinding{
				pos: s.Pos(),
				msg: "channel send inside unordered map iteration: message order follows Go's randomized map order",
			})
		case *ast.CallExpr:
			if f := classifyEmissionCall(info, rs, s); f != nil {
				findings = append(findings, *f)
			}
		}
		return true
	})

	if len(findings) == 0 {
		return
	}
	sorted := sortedAfterLoop(info, rest)
	for _, f := range findings {
		if f.obj != nil && sorted[f.obj] {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// classifyWrite decides whether one assignment inside a map-range body is
// order-sensitive. Commutative updates (integer accumulation, idempotent
// constant stores, guarded min/max, writes keyed by the range variables)
// pass; appends, float/string accumulation, and last-writer-wins stores
// to outer state are findings.
func classifyWrite(info *types.Info, rs *ast.RangeStmt, rangeVars map[types.Object]bool, as *ast.AssignStmt, lhs, rhs ast.Expr, guarded map[*ast.AssignStmt]bool) *mapFinding {
	base := baseIdent(lhs)
	if base == nil || base.Name == "_" {
		return nil
	}
	obj := useObj(info, base)
	if obj == nil || definedWithin(obj, rs) {
		return nil // loop-local state; iteration order cannot escape
	}

	// Writes keyed by the range variables touch each key exactly once, in
	// any order — m2[k] = v and acc[k] = append(acc[k], ...) are fine.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if mentionsObj(info, idx.Index, rangeVars) {
			return nil
		}
		return &mapFinding{obj: obj, pos: as.Pos(), msg: fmt.Sprintf(
			"write to %s[...] with a loop-independent key inside unordered map iteration: the surviving value depends on map order", base.Name)}
	}

	lhsType := info.TypeOf(lhs)
	switch as.Tok {
	case token.ASSIGN:
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				if b := baseIdent(call.Args[0]); b != nil && useObj(info, b) == obj {
					return &mapFinding{obj: obj, pos: as.Pos(), msg: fmt.Sprintf(
						"append to %s inside unordered map iteration: element order follows Go's randomized map order (sort after the loop or iterate sorted keys)", base.Name)}
				}
			}
		}
		if tv, ok := info.Types[rhs]; ok && tv.Value != nil {
			return nil // idempotent store of a constant (found = true)
		}
		if guarded[as] {
			return nil // min/max pattern: guarded comparison makes it order-free
		}
		return &mapFinding{obj: obj, pos: as.Pos(), msg: fmt.Sprintf(
			"assignment to %s inside unordered map iteration: last writer wins, and the last key is random", base.Name)}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if lhsType != nil && isBasicKind(lhsType, types.IsInteger) {
			return nil // integer accumulation is commutative
		}
		if lhsType != nil && isBasicKind(lhsType, types.IsFloat|types.IsComplex) {
			return &mapFinding{obj: obj, pos: as.Pos(), msg: fmt.Sprintf(
				"floating-point accumulation into %s inside unordered map iteration: rounding makes the sum order-dependent", base.Name)}
		}
		if lhsType != nil && isBasicKind(lhsType, types.IsString) {
			return &mapFinding{obj: obj, pos: as.Pos(), msg: fmt.Sprintf(
				"string concatenation into %s inside unordered map iteration: the result follows Go's randomized map order", base.Name)}
		}
		return nil
	default: // &=, |=, ^=, <<=, >>=, %= on integers — commutative or rare
		return nil
	}
}

// classifyEmissionCall flags ordered emission — writer/encoder calls and
// fmt.Fprint* — inside a map-range body: bytes leave in map order.
func classifyEmissionCall(info *types.Info, rs *ast.RangeStmt, call *ast.CallExpr) *mapFinding {
	if isPkgFunc(info, call, "fmt", "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println") {
		return &mapFinding{pos: call.Pos(), msg: "formatted output inside unordered map iteration: emission follows Go's randomized map order (sort keys first)"}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
	default:
		return nil
	}
	base := baseIdent(sel.X)
	if base == nil {
		return nil
	}
	obj := useObj(info, base)
	if obj == nil || definedWithin(obj, rs) {
		return nil
	}
	return &mapFinding{pos: call.Pos(), msg: fmt.Sprintf(
		"%s.%s inside unordered map iteration: emission follows Go's randomized map order (sort keys first)", base.Name, sel.Sel.Name)}
}

// guardedMinMaxAssigns finds assignments of the shape
//
//	if x < best { best = x }
//
// whose result is order-independent despite overwriting outer state.
func guardedMinMaxAssigns(info *types.Info, body ast.Node) map[*ast.AssignStmt]bool {
	out := make(map[*ast.AssignStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Else != nil {
			return true
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cond.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		condObjs := identObjs(info, cond)
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN {
				continue
			}
			// Every assigned variable and value must appear in the guard
			// for the comparison to make the overwrite order-free.
			all := true
			for _, e := range append(append([]ast.Expr{}, as.Lhs...), as.Rhs...) {
				if b := baseIdent(e); b == nil || !condObjs[useObj(info, b)] {
					all = false
					break
				}
			}
			if all {
				out[as] = true
			}
		}
		return true
	})
	return out
}

func identObjs(info *types.Info, n ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if o := useObj(info, id); o != nil {
				out[o] = true
			}
		}
		return true
	})
	return out
}

// sortedAfterLoop scans the statements following a map range for sort
// calls and returns the set of objects whose order they fix: a collection
// filled in map order and sorted immediately after is deterministic. The
// property propagates backwards through projections — in
//
//	for _, e := range entries { out = append(out, e.stats()) }
//	sort.Slice(out, ...)
//
// sorting out also redeems entries, because entries' random order never
// reaches an observer.
func sortedAfterLoop(info *types.Info, rest []ast.Stmt) map[types.Object]bool {
	sorted := make(map[types.Object]bool)
	type edge struct{ from, to types.Object } // range over .from appends into .to
	var edges []edge
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				f := calleeFunc(info, x)
				if f == nil || f.Pkg() == nil {
					return true
				}
				switch f.Pkg().Path() {
				case "sort", "slices":
				default:
					return true
				}
				for o := range identObjs(info, x) {
					sorted[o] = true
				}
			case *ast.RangeStmt:
				from := baseIdent(x.X)
				if from == nil {
					return true
				}
				fromObj := useObj(info, from)
				if fromObj == nil {
					return true
				}
				ast.Inspect(x.Body, func(c ast.Node) bool {
					as, ok := c.(*ast.AssignStmt)
					if !ok {
						return true
					}
					for _, lhs := range as.Lhs {
						if b := baseIdent(lhs); b != nil {
							if to := useObj(info, b); to != nil {
								edges = append(edges, edge{fromObj, to})
							}
						}
					}
					return true
				})
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if sorted[e.to] && !sorted[e.from] {
				sorted[e.from] = true
				changed = true
			}
		}
	}
	return sorted
}
