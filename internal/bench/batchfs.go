package bench

import (
	"fmt"

	"pacon/internal/indexfs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// ext-batchfs approximates the paper's private-metadata-service
// discussion (§II.B, §V): BatchFS/DeltaFS ≈ IndexFS co-located with the
// clients plus bulk insertion. On their ideal workload — an N-N
// checkpoint where every process writes its own directory and nobody
// reads until the job ends — bulk insertion buffers creates locally and
// merges them as SSTables. The experiment shows the trade the paper
// calls out: bulk mode approaches (even beats) Pacon on raw insertion,
// but gives up the shared consistent view Pacon keeps (a bulk client's
// files are invisible to everyone until the merge).
func init() {
	register("ext-batchfs", extBatchFS)
}

func extBatchFS(cfg Config) ([]*Figure, error) {
	f := &Figure{
		ID: "ext-batchfs", Title: "Extension: N-N checkpoint creates — IndexFS vs BatchFS-mode vs Pacon",
		YLabel: "create OPS (bulk includes final merge)",
		Series: []string{"IndexFS", "BatchFS(bulk)", "Pacon"},
	}
	for _, clients := range cfg.clientCounts(false) {
		row := map[string]float64{}
		for _, mode := range []string{"IndexFS", "BatchFS(bulk)"} {
			ops, err := nnCheckpointIndexFS(cfg, clients, mode == "BatchFS(bulk)")
			if err != nil {
				return nil, fmt.Errorf("ext-batchfs %s @%d: %w", mode, clients, err)
			}
			row[mode] = ops
		}
		ops, err := nnCheckpointPacon(cfg, clients)
		if err != nil {
			return nil, fmt.Errorf("ext-batchfs pacon @%d: %w", clients, err)
		}
		row["Pacon"] = ops
		f.AddPoint(map[string]string{"clients": fmt.Sprint(clients)}, row)
	}
	f.Note("BatchFS-mode/Pacon at max scale = %.2fx — private metadata wins raw inserts by dropping the shared view (no global namespace until merge)",
		f.Last("BatchFS(bulk)")/f.Last("Pacon"))
	f.Note("BatchFS-mode/IndexFS = %.1fx — the bulk-insertion speedup the BatchFS paper reports",
		f.Last("BatchFS(bulk)")/f.Last("IndexFS"))
	return []*Figure{f}, nil
}

// nnCheckpointIndexFS runs the per-client-directory create workload.
func nnCheckpointIndexFS(cfg Config, clients int, bulk bool) (float64, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	if err := e.provision("/ckpt"); err != nil {
		return 0, err
	}
	// Prepare per-client directories through a plain client.
	if _, err := e.indexfsClients(1); err != nil {
		return 0, err
	}
	setup := e.indexfs.NewClient(e.nodes[0], appCred, 4096, false)
	at := vclock.Time(0)
	for i := 0; i < clients; i++ {
		var err error
		at, err = setup.Mkdir(at, fmt.Sprintf("/ckpt/rank%04d", i), 0o755)
		if err != nil {
			return 0, err
		}
	}

	cls := make([]*indexfs.Client, clients)
	for i := range cls {
		cls[i] = e.indexfs.NewClient(e.nodes[i%len(e.nodes)], appCred, 4096, bulk)
	}
	wcls := make([]workload.Client, clients)
	for i, c := range cls {
		wcls[i] = c
	}
	runner := workload.NewRunner(wcls)
	items := cfg.ItemsPerClient
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var err error
		for j := 0; j < items; j++ {
			now, err = cl.Create(now, fmt.Sprintf("/ckpt/rank%04d/out.%d", idx, j), 0o644)
			if err != nil {
				return now, 0, err
			}
		}
		if bulk {
			// The checkpoint's final merge into the global store.
			if now, err = cls[idx].FlushBulk(now); err != nil {
				return now, 0, err
			}
		}
		return now, int64(items), nil
	})
	if err != nil {
		return 0, err
	}
	return res.OPS(), nil
}

func nnCheckpointPacon(cfg Config, clients int) (float64, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	if err := e.provision("/ckpt"); err != nil {
		return 0, err
	}
	cls, err := e.paconClients(clients, "/ckpt")
	if err != nil {
		return 0, err
	}
	setup := cls[0]
	at := vclock.Time(0)
	for i := 0; i < clients; i++ {
		if at, err = setup.Mkdir(at, fmt.Sprintf("/ckpt/rank%04d", i), 0o755); err != nil {
			return 0, err
		}
	}
	runner := workload.NewRunner(cls)
	items := cfg.ItemsPerClient
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var err error
		for j := 0; j < items; j++ {
			now, err = cl.Create(now, fmt.Sprintf("/ckpt/rank%04d/out.%d", idx, j), 0o644)
			if err != nil {
				return now, 0, err
			}
		}
		return now, int64(items), nil
	})
	if err != nil {
		return 0, err
	}
	return res.OPS(), nil
}
