package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MetricNameAnalyzer enforces the repo's metric naming contract: every
// series registered through telemetry.Registry.Counter / Gauge /
// Histogram must be named with a compile-time constant string matching
// ^mc_<pkg>_<name>$ where <pkg> is the name of the registering
// package. The convention (established in PR 1, documented in
// DESIGN.md "Observability") is what keeps /metrics output greppable
// per subsystem and guarantees two packages never collide on a series.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc: "metric names must be compile-time constants matching mc_<pkg>_<name> " +
		"with <pkg> equal to the registering package's name; the mc_runtime_* " +
		"and mc_build_* namespaces are reserved for the telemetry package, " +
		"mc_serve_* / mc_ssjoin_* are scoped by import path to internal/serve " +
		"and internal/ssjoin, and labels on path-scoped series must be inline " +
		"telemetry.L calls with constant keys from the namespace's bounded " +
		"label vocabulary (cardinality guard)",
	Run: runMetricName,
}

var metricNameRE = regexp.MustCompile(`^mc_([a-z0-9]+)_([a-z0-9_]+)$`)

// reservedMetricNamespaces are package segments that do not belong to
// any registering package: mc_runtime_* (process gauges) and mc_build_*
// (build-info series) are emitted by the telemetry package itself on
// behalf of the whole process. Only the telemetry package may register
// them — from anywhere else they would shadow the process-wide series.
var reservedMetricNamespaces = map[string]bool{
	"runtime": true,
	"build":   true,
}

// pathScopedMetricNamespaces are namespace segments tied to one
// specific package by import path, not merely by package name:
// mc_serve_* belongs to the HTTP service layer (internal/serve) and
// mc_ssjoin_* (including the mc_ssjoin_progress_* join-observability
// series) to the joint executor (internal/ssjoin).
// These series feed operational dashboards and alerts, so they must be
// emitted from exactly one place. The ordinary mc_<pkg>_<name> rule
// would admit any package that happens to share the name; the path
// scope closes that hole.
var pathScopedMetricNamespaces = map[string]func(path string) bool{
	"serve":  isServePkg,
	"ssjoin": isSSJoinPkg,
}

// pathScopedLabelKeys is the bounded label vocabulary per path-scoped
// namespace. Series in these namespaces feed operational dashboards
// and alerts, where an unbounded label (a session id, a client value)
// silently explodes series cardinality; restricting keys to this
// constant set — with values bounded by construction (route names are
// registration constants, codes are HTTP statuses, reasons are the
// eviction enum; the registry-side twin, TestServeLabelCardinality,
// checks the values at runtime) — keeps the surface finite.
var pathScopedLabelKeys = map[string]map[string]bool{
	"serve":  {"route": true, "code": true, "reason": true},
	"ssjoin": {"q": true, "tier": true},
}

// registrationMethods are the Registry methods (and same-named
// package-level conveniences) that create or look up a series by name.
var registrationMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func runMetricName(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			f := calleeOf(info, call)
			if f == nil || !registrationMethods[f.Name()] {
				return true
			}
			// Method on a telemetry-declared type (Registry), or a
			// telemetry package-level function.
			if n := recvNamed(f); n != nil {
				if !isTelemetryPkg(pkgPathOf(n.Obj())) {
					return true
				}
			} else if !isTelemetryPkg(pkgPathOf(f)) {
				return true
			}

			arg := call.Args[0]
			tv, ok := info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric name passed to %s must be a compile-time constant string so mclint can audit the mc_<pkg>_<name> convention", f.Name())
				return true
			}
			name := constant.StringVal(tv.Value)
			m := metricNameRE.FindStringSubmatch(name)
			if m == nil {
				pass.Reportf(arg.Pos(),
					"metric name %q does not match ^mc_<pkg>_<name>$ (lowercase [a-z0-9_], e.g. mc_%s_items_total)", name, pass.Pkg.Name())
				return true
			}
			if reservedMetricNamespaces[m[1]] {
				if !isTelemetryPkg(pass.Pkg.Path()) {
					pass.Reportf(arg.Pos(),
						"metric namespace mc_%s_* is reserved for the telemetry package's process-wide series; package %q must use mc_%s_*", m[1], pass.Pkg.Name(), pass.Pkg.Name())
				}
				return true
			}
			if owns, scoped := pathScopedMetricNamespaces[m[1]]; scoped {
				if !owns(pass.Pkg.Path()) {
					pass.Reportf(arg.Pos(),
						"metric namespace mc_%s_* is scoped to internal/%s by import path; package %q (%s) must use mc_%s_*",
						m[1], m[1], pass.Pkg.Name(), pass.Pkg.Path(), pass.Pkg.Name())
					return true
				}
				checkScopedLabels(pass, call, m[1])
				return true
			}
			if m[1] != pass.Pkg.Name() {
				pass.Reportf(arg.Pos(),
					"metric name %q claims package segment %q but is registered from package %q; use mc_%s_%s", name, m[1], pass.Pkg.Name(), pass.Pkg.Name(), m[2])
			}
			return true
		})
	}
	return nil
}

// checkScopedLabels is the cardinality guard for a path-scoped
// namespace: every label argument of the registration must be an
// inline telemetry.L call whose key is a compile-time constant from
// the namespace's bounded vocabulary. Anything mclint cannot prove
// bounded (a spread slice, a constructed Label, a computed key) is a
// finding — a dashboard-facing series must not be able to grow a label
// dimension by accident.
func checkScopedLabels(pass *Pass, call *ast.CallExpr, ns string) {
	allowed := pathScopedLabelKeys[ns]
	if allowed == nil {
		return
	}
	if call.Ellipsis.IsValid() {
		pass.Reportf(call.Ellipsis,
			"labels on an mc_%s_* series must be inline telemetry.L calls so mclint can bound the label set; a spread argument cannot be audited", ns)
		return
	}
	info := pass.TypesInfo
	for _, arg := range call.Args[1:] {
		lc, ok := arg.(*ast.CallExpr)
		var f *types.Func
		if ok {
			f = calleeOf(info, lc)
		}
		if f == nil || f.Name() != "L" || !isTelemetryPkg(pkgPathOf(f)) {
			pass.Reportf(arg.Pos(),
				"label on an mc_%s_* series must be an inline telemetry.L call so mclint can bound the label set", ns)
			continue
		}
		if len(lc.Args) < 1 {
			continue
		}
		kv, ok := info.Types[lc.Args[0]]
		if !ok || kv.Value == nil || kv.Value.Kind() != constant.String {
			pass.Reportf(lc.Args[0].Pos(),
				"label key on an mc_%s_* series must be a compile-time constant string from the bounded label set", ns)
			continue
		}
		key := constant.StringVal(kv.Value)
		if !allowed[key] {
			keys := make([]string, 0, len(allowed))
			for k := range allowed {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pass.Reportf(lc.Args[0].Pos(),
				"label key %q is outside the bounded mc_%s_* label set (allowed: %s); new dashboard dimensions must be added to pathScopedLabelKeys deliberately", key, ns, strings.Join(keys, ", "))
		}
	}
}
