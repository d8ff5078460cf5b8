package workload

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/oslinux"
	"repro/internal/sim"
)

// ShufflePort is the port MapReduce shuffle traffic targets.
const ShufflePort = 7337

// MRJob describes a Hadoop-style batch job: map tasks reading input
// splits from SD cards, an all-to-all shuffle over the fabric, then
// reduce tasks writing output.
type MRJob struct {
	Name string
	// Maps and Reduces are the task counts. Both must be positive.
	Maps    int
	Reduces int
	// InputSplitBytes is the data each map reads. Default 16 MiB.
	InputSplitBytes int64
	// MapCPUMI / ReduceCPUMI are per-task compute costs. Defaults: 400 /
	// 300 MI.
	MapCPUMI    hw.MI
	ReduceCPUMI hw.MI
	// ShuffleRatio scales map output: shuffle bytes per map =
	// InputSplitBytes × ratio. Default 0.5.
	ShuffleRatio float64
}

func (j *MRJob) fillDefaults() {
	if j.InputSplitBytes <= 0 {
		j.InputSplitBytes = 16 * hw.MiB
	}
	if j.MapCPUMI <= 0 {
		j.MapCPUMI = 400
	}
	if j.ReduceCPUMI <= 0 {
		j.ReduceCPUMI = 300
	}
	if j.ShuffleRatio <= 0 {
		j.ShuffleRatio = 0.5
	}
}

// validate rejects impossible jobs.
func (j *MRJob) validate() error {
	if j.Maps <= 0 || j.Reduces <= 0 {
		return fmt.Errorf("workload: job %q needs positive map/reduce counts", j.Name)
	}
	return nil
}

// MRReport summarises a finished job.
type MRReport struct {
	Job           string
	Makespan      time.Duration
	MapPhase      time.Duration
	ShufflePhase  time.Duration
	ReducePhase   time.Duration
	ShuffledBytes int64
	TaskFailures  int
}

// MRRunner schedules jobs over a pool of worker containers.
type MRRunner struct {
	fabric  *Fabric
	workers []Endpoint
}

// NewMRRunner builds a runner over worker containers (the "hadoop"
// containers of Fig. 3).
func NewMRRunner(fabric *Fabric, workers []Endpoint) (*MRRunner, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("workload: MapReduce needs workers")
	}
	for _, w := range workers {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}
	return &MRRunner{fabric: fabric, workers: workers}, nil
}

// mrRun tracks one executing job.
type mrRun struct {
	r         *MRRunner
	job       MRJob
	onDone    func(MRReport)
	started   sim.Time
	mapsLeft  int
	mapEnd    sim.Time
	flowsLeft int
	shufEnd   sim.Time
	redsLeft  int
	failures  int
	shuffled  int64
}

// Run executes a job asynchronously; onDone receives the report.
// Map task i runs on worker i mod len(workers); reduce task j on worker
// j mod len(workers) — round-robin like a Hadoop scheduler with uniform
// slots.
func (r *MRRunner) Run(job MRJob, onDone func(MRReport)) error {
	if err := job.validate(); err != nil {
		return err
	}
	job.fillDefaults()
	run := &mrRun{
		r:        r,
		job:      job,
		onDone:   onDone,
		started:  r.fabric.Engine.Now(),
		mapsLeft: job.Maps,
	}
	for i := 0; i < job.Maps; i++ {
		run.startMap(i)
	}
	return nil
}

func (run *mrRun) worker(i int) Endpoint { return run.r.workers[i%len(run.r.workers)] }

// startMap reads the split then computes.
func (run *mrRun) startMap(i int) {
	w := run.worker(i)
	w.Suite.Kernel().StorageRead(run.job.InputSplitBytes, func() {
		_, err := w.Suite.Exec(w.Container, oslinux.TaskSpec{
			WorkMI: run.job.MapCPUMI,
			OnDone: func() { run.mapDone(i) },
		})
		if err != nil {
			run.failures++
			run.mapDone(i)
		}
	})
}

// mapDone advances to shuffle when the last map finishes.
func (run *mrRun) mapDone(i int) {
	run.mapsLeft--
	if run.mapsLeft > 0 {
		return
	}
	run.mapEnd = run.r.fabric.Engine.Now()
	run.startShuffle()
}

// startShuffle moves every map's partitioned output to every reducer.
func (run *mrRun) startShuffle() {
	job := run.job
	perPair := int64(float64(job.InputSplitBytes) * job.ShuffleRatio / float64(job.Reduces))
	if perPair <= 0 {
		perPair = 1
	}
	type pair struct{ m, r int }
	var pairs []pair
	for m := 0; m < job.Maps; m++ {
		for red := 0; red < job.Reduces; red++ {
			src, dst := run.worker(m), run.worker(red)
			if src.Host == dst.Host {
				// Local shuffle: no network flow.
				run.shuffled += perPair
				continue
			}
			pairs = append(pairs, pair{m, red})
		}
	}
	if len(pairs) == 0 {
		run.shufEnd = run.r.fabric.Engine.Now()
		run.startReduce()
		return
	}
	run.flowsLeft = len(pairs)
	for _, p := range pairs {
		src, dst := run.worker(p.m), run.worker(p.r)
		err := run.r.fabric.Send(src.Host, dst.Host, perPair, ShufflePort, func(err error) {
			if err != nil {
				run.failures++
			} else {
				run.shuffled += perPair
			}
			run.flowsLeft--
			if run.flowsLeft == 0 {
				run.shufEnd = run.r.fabric.Engine.Now()
				run.startReduce()
			}
		})
		if err != nil {
			run.failures++
			run.flowsLeft--
			if run.flowsLeft == 0 {
				run.shufEnd = run.r.fabric.Engine.Now()
				run.startReduce()
			}
		}
	}
}

// startReduce runs reducers then writes output.
func (run *mrRun) startReduce() {
	run.redsLeft = run.job.Reduces
	for i := 0; i < run.job.Reduces; i++ {
		w := run.worker(i)
		_, err := w.Suite.Exec(w.Container, oslinux.TaskSpec{
			WorkMI: run.job.ReduceCPUMI,
			OnDone: func() {
				w.Suite.Kernel().StorageWrite(run.job.InputSplitBytes/4, func() {
					run.reduceDone()
				})
			},
		})
		if err != nil {
			run.failures++
			run.reduceDone()
		}
	}
}

func (run *mrRun) reduceDone() {
	run.redsLeft--
	if run.redsLeft > 0 {
		return
	}
	now := run.r.fabric.Engine.Now()
	if run.onDone != nil {
		run.onDone(MRReport{
			Job:           run.job.Name,
			Makespan:      now.Sub(run.started),
			MapPhase:      run.mapEnd.Sub(run.started),
			ShufflePhase:  run.shufEnd.Sub(run.mapEnd),
			ReducePhase:   now.Sub(run.shufEnd),
			ShuffledBytes: run.shuffled,
			TaskFailures:  run.failures,
		})
	}
}
