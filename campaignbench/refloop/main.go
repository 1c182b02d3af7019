// Command refloop is campaignbench's host-speed reference: a fixed,
// deterministic, single-goroutine task shaped like the simulator's work (an
// event heap, map updates, small allocations, JSON encoding and decoding). It
// imports nothing from the repository, so no change to the program changes its
// speed; only the host does.
//
// It reads one number n per line from standard input, runs the task n times
// and writes "<nanoseconds> <checksum>" on one line. It exits at the end of
// its input.
package main

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// event is one entry of the task's event queue.
type event struct {
	at   int64
	key  string
	data map[string]string
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// object is what the task stores and encodes, a small API object.
type object struct {
	Name     string            `json:"name"`
	Revision int64             `json:"revision"`
	Labels   map[string]string `json:"labels"`
	Owners   []string          `json:"owners"`
}

// unit runs the task once and returns a checksum of what it computed.
func unit() uint64 {
	var rng uint64 = 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	store := make(map[string]*object)
	h := &eventHeap{}
	for i := 0; i < 64; i++ {
		heap.Push(h, &event{at: int64(next() % 1000), key: "obj-" + strconv.Itoa(i%24)})
	}
	var sum uint64
	for steps := 0; steps < 400 && h.Len() > 0; steps++ {
		e := heap.Pop(h).(*event)
		obj, ok := store[e.key]
		if !ok {
			obj = &object{Name: e.key, Labels: map[string]string{"app": "ref"}}
			store[e.key] = obj
		}
		obj.Revision++
		obj.Labels["step"] = strconv.Itoa(steps)
		if steps%4 == 0 {
			obj.Owners = append(obj.Owners[:0:0], obj.Owners...)
			obj.Owners = append(obj.Owners, fmt.Sprintf("%s/%d", e.key, obj.Revision))
			if len(obj.Owners) > 4 {
				obj.Owners = obj.Owners[1:]
			}
		}
		if steps%3 == 0 {
			b, _ := json.Marshal(obj)
			var back object
			_ = json.Unmarshal(b, &back)
			sum += uint64(len(b)) + uint64(back.Revision)
		}
		sum += uint64(len(strings.ToUpper(e.key)))
		if h.Len() < 96 {
			heap.Push(h, &event{at: e.at + int64(next()%50), key: "obj-" + strconv.Itoa(int(next()%24)),
				data: map[string]string{"from": e.key}})
		}
	}
	return sum
}

func main() {
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		n, err := strconv.Atoi(strings.TrimSpace(in.Text()))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "refloop: bad count %q\n", in.Text())
			os.Exit(2)
		}
		var sum uint64
		start := time.Now()
		for i := 0; i < n; i++ {
			sum += unit()
		}
		fmt.Fprintf(out, "%d %d\n", time.Since(start).Nanoseconds(), sum)
		out.Flush()
	}
}
