package bench

import (
	"errors"
	"fmt"

	"pacon/internal/chaos"
)

// The audit experiment turns the divergence auditor into a standing
// verification gate: several chaos schedules (fault injection, stalls,
// rmdir races, cache pressure) run to quiescence and every one must end
// with a clean post-drain audit — zero divergent, zero stale-pending.
// The report is what CI's audit-check step archives.
func init() {
	register("audit", func(cfg Config) ([]*Figure, error) { return runAudit(auditSchedules(cfg)) })
}

// auditSchedules is the gate's spread of seeds and fault mixes.
func auditSchedules(cfg Config) []chaos.Config {
	ops := max(cfg.ItemsPerClient, 20)
	return []chaos.Config{
		{Seed: 1, Nodes: 2, Clients: 4, Ops: ops, FaultRate: 0.05, MaxFaultsPerPath: 2},
		{Seed: 2, Nodes: 3, Clients: 6, Ops: ops, FaultRate: 0.1, MaxFaultsPerPath: 2, StallEveryN: 7},
		{Seed: 3, Nodes: 2, Clients: 4, Ops: ops, Rmdir: true, DoomedDirs: 2},
		{Seed: 4, Nodes: 2, Clients: 4, Ops: ops, CacheCapacityBytes: 16 << 10},
	}
}

// runAudit runs every schedule and records its post-drain audit. A
// harness violation (of any kind) or an unclean audit fails the gate,
// but the failing seed is still recorded — with its counts and the
// number of violations — and the figure is returned together with the
// error, so the report that fails the gate carries its evidence.
func runAudit(schedules []chaos.Config) ([]*Figure, error) {
	f := &Figure{
		ID: "audit", Title: "Post-drain divergence audit across chaos schedules",
		YLabel: "keys",
		Series: []string{"sampled", "matched", "stale_pending", "divergent", "violations"},
	}
	var errs []error
	sampled := 0
	for _, sc := range schedules {
		res, err := chaos.Run(sc)
		a := res.Audit
		violations := 0
		if err != nil {
			violations = 1
			if j, ok := err.(interface{ Unwrap() []error }); ok {
				violations = len(j.Unwrap())
			}
			errs = append(errs, fmt.Errorf("audit seed %d: %w", sc.Seed, err))
		} else if a.Divergent > 0 || a.StalePending > 0 {
			errs = append(errs, fmt.Errorf("audit seed %d: divergence or post-drain stale-pending detected", sc.Seed))
		}
		sampled += a.Sampled
		f.AddPoint(map[string]string{"seed": fmt.Sprint(sc.Seed)}, map[string]float64{
			"client_ops":      float64(res.ClientOps),
			"injected_faults": float64(res.Injected),
			"injected_stalls": float64(res.Stalls),
			"sampled":         float64(a.Sampled),
			"matched":         float64(a.Matched),
			"stale_pending":   float64(a.StalePending),
			"divergent":       float64(a.Divergent),
			"violations":      float64(violations),
		})
	}
	f.Note("%d keys audited across %d schedules; all clean: %v", sampled, len(schedules), len(errs) == 0)
	if len(errs) > 0 {
		return []*Figure{f}, fmt.Errorf("audit gate failed: %w", errors.Join(errs...))
	}
	return []*Figure{f}, nil
}
