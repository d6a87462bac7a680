package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// pinToOneCPU binds this process, and so the daemons it starts, to the
// highest-numbered CPU it may run on. The reference loop and the work it
// rescales then always share a CPU: on a shared host one core of a
// two-core box can be slowed for minutes while the other is not.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	last := -1
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				last = w*64 + b
			}
		}
	}
	if last < 0 {
		return syscall.EINVAL
	}
	var one [16]uint64
	one[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0,
		unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return errno
	}
	return nil
}

// refNominal is the reference loop's time on the nominal host that every
// reported time is rescaled to: a time of t seconds measured while the
// loop took r reads t*refNominal/r.
const refNominal = 3 * time.Millisecond

// refLoop is a fixed piece of work, timed next to each unit of a workload
// to read the host's current speed. It mixes what the simulator does (map
// updates, dependent loads through a 1 MiB table, sorting) and never
// allocates, so its time depends on the host and not on the heap the
// workload leaves behind. It runs only benchmark code, so a change to the
// program does not change it.
type refLoop struct {
	next  []int32 // one random cycle through all entries
	table map[int]int
	src   []int
	work  []int
	times []float64 // every speed reading's median loop time, seconds
}

func newRefLoop() *refLoop {
	const n = 1 << 18
	r := &refLoop{
		next:  make([]int32, n),
		table: make(map[int]int, 4096),
		src:   make([]int, 1<<13),
		work:  make([]int, 1<<13),
	}
	// Sattolo's shuffle of the identity is a single cycle.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := n - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		r.next[perm[i]] = perm[(i+1)%n]
	}
	for i := range r.src {
		r.src[i] = int(rnd() % 1_000_003)
	}
	for i := 0; i < 4096; i++ {
		r.table[i] = 0
	}
	return r
}

// once runs the fixed work and returns a value that depends on all of it.
func (r *refLoop) once() int {
	p := int32(0)
	for i := 0; i < 1<<17; i++ {
		p = r.next[p]
	}
	for i := 0; i < 1<<16; i++ {
		r.table[(i*7919)&4095] += i
	}
	copy(r.work, r.src)
	slices.Sort(r.work)
	return int(p) + r.table[17] + r.work[len(r.work)/2]
}

var refSink int

// speed times the loop five times and returns the factor that rescales a
// time measured now to the nominal host: refNominal over the median time.
func (r *refLoop) speed() float64 {
	var ts [5]float64
	for i := range ts {
		t0 := time.Now()
		refSink += r.once()
		ts[i] = time.Since(t0).Seconds()
	}
	t := median(ts[:])
	r.times = append(r.times, t)
	return refNominal.Seconds() / t
}

// rescaled runs fn and returns its wall time in seconds rescaled to the
// nominal host by the mean of the host's speed just before and just after.
func (e *env) rescaled(fn func() error) (float64, error) {
	k0 := e.ref.speed()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	return wall * (k0 + e.ref.speed()) / 2, err
}
