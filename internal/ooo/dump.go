package ooo

import (
	"fmt"
	"strings"
)

// maxDumpEntries bounds the per-thread ROB listing in DumpState so a
// failure report stays readable even with a 128-entry ROB.
const maxDumpEntries = 24

// DumpState renders the core's in-flight state — per-thread ROB
// contents, load/store queues and fetch state, per-cluster issue queue
// occupancy, and physical register availability — for the structured
// failure reports attached to watchdog and deadlock SimErrors.
func (c *Core) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d @ cycle %d: %d free physregs\n", c.ID, c.now, len(c.free))
	for q := range c.iqs {
		fmt.Fprintf(&b, "  iq %s: %d/%d entries\n",
			c.cfg.Clusters[q].Name, len(c.iqs[q].ents), c.cfg.Clusters[q].IQSize)
	}
	for _, th := range c.threads {
		fmt.Fprintf(&b, "  thread %d (vcpu %d): rip=%#x kernel=%v running=%v fetchrip=%#x rob=%d/%d ldq=%d stq=%d fetchq=%d\n",
			th.id, th.ctx.ID, th.ctx.RIP, th.ctx.Kernel, th.ctx.Running,
			th.fetchRIP, th.robCount, len(th.rob), th.ldq.len(), th.stq.len(), th.fetchQ.len())
		n := th.robCount
		if n > maxDumpEntries {
			n = maxDumpEntries
		}
		for i := 0; i < n; i++ {
			e := th.robAt(i)
			state := "wait"
			switch e.state {
			case stateIssued:
				state = fmt.Sprintf("issued(ready@%d)", e.readyCycle)
			case stateDone:
				state = "done"
			}
			mem := ""
			if e.isMem() {
				mem = fmt.Sprintf(" ea=%#x", e.ea)
			}
			fmt.Fprintf(&b, "    rob[%2d] seq=%d rip=%#x %s %s%s\n",
				i, e.seq, e.uop.RIP, &e.uop, state, mem)
		}
		if th.robCount > n {
			fmt.Fprintf(&b, "    ... %d more entries\n", th.robCount-n)
		}
	}
	return b.String()
}
