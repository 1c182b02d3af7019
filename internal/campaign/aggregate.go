package campaign

import (
	"sort"

	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// InjGroup is the injection-type grouping used by Tables IV and V: field and
// serialization bit flips together, data-type sets, and message drops.
type InjGroup string

// Injection groups.
const (
	GroupBitFlip      InjGroup = "Bit-flip"
	GroupSet          InjGroup = "Value set"
	GroupDrop         InjGroup = "Drop"
	GroupControlPlane InjGroup = "Control plane"
	GroupAdmission    InjGroup = "Admission"
	GroupTopology     InjGroup = "Topology"
)

// InjGroups lists the groups in table order.
func InjGroups() []InjGroup {
	return []InjGroup{GroupBitFlip, GroupSet, GroupDrop, GroupControlPlane, GroupAdmission, GroupTopology}
}

// GroupOf buckets a fault type.
func GroupOf(t inject.FaultType) InjGroup {
	switch {
	case t.IsControlPlane():
		return GroupControlPlane
	case t.IsAdmission():
		return GroupAdmission
	case t.IsTopology():
		return GroupTopology
	case t == inject.SetValue:
		return GroupSet
	case t == inject.DropMessage:
		return GroupDrop
	default: // BitFlip and FlipProtoByte are both single-bit corruptions
		return GroupBitFlip
	}
}

// ControlPlaneFaults lists the HA fault axes in table order.
func ControlPlaneFaults() []inject.FaultType {
	return []inject.FaultType{
		inject.FaultAPIServerCrash, inject.FaultMasterPartition, inject.FaultStoreLoss,
	}
}

// AdmissionFaults lists the admission fault axes in table order.
func AdmissionFaults() []inject.FaultType {
	return []inject.FaultType{
		inject.FaultWebhookDown, inject.FaultWebhookLatency,
		inject.FaultWebhookSelector, inject.FaultWebhookPolicy,
	}
}

// AdmissionKey addresses one admission-table row: a webhook fault axis under
// one failure-policy regime.
type AdmissionKey struct {
	Fault  inject.FaultType
	Policy string
}

// TopologyFaults lists the topology fault axes in table order.
func TopologyFaults() []inject.FaultType {
	return []inject.FaultType{
		inject.FaultEdgeLinkFlap, inject.FaultZonePartition, inject.FaultNodeKill,
	}
}

// TopologyKey addresses one topology-table row: a fault axis against one
// zone. Zone comes from Injection.Value (stamped by GenerateTopology), so
// shard merging reconstructs the rows without a cluster handle.
type TopologyKey struct {
	Fault inject.FaultType
	Zone  string
}

// Aggregate accumulates experiment results into the paper's tables.
type Aggregate struct {
	Results []*Result

	// Perf / OF counts by workload and injection group (Table IV).
	OFCounts map[workload.Kind]map[InjGroup]map[classify.OF]int
	// CF counts by workload and injection group (Table V).
	CFCounts map[workload.Kind]map[InjGroup]map[classify.CF]int
	// OF → CF propagation by workload (Table III).
	OFToCF map[workload.Kind]map[classify.OF]map[classify.CF]int
	// Client z-scores grouped by OF and workload (Figure 6).
	ZByOF map[workload.Kind]map[classify.OF][]float64
	// User-error counts by OF and workload (Figure 7).
	UserErrByOF map[workload.Kind]map[classify.OF]int
	// Activation statistics (F1 discussion).
	Fired, Activated int
	// FailoverByFault / StaleByFault collect the HA windows (simulated ms
	// per experiment) for each control-plane fault axis: how long the
	// control plane was unresponsive, and how long some live store replica
	// served a stale revision.
	FailoverByFault map[inject.FaultType][]float64
	StaleByFault    map[inject.FaultType][]float64
	// OutageByAdmission / ViolationsByAdmission collect the admission trade-
	// off per (fault axis, failure policy): the write-availability outage
	// window of each experiment (simulated ms) and its count of policy-
	// violating objects admitted.
	OutageByAdmission     map[AdmissionKey][]float64
	ViolationsByAdmission map[AdmissionKey][]int
	// DisruptionByTopology / RecoveryByTopology collect the topology-campaign
	// windows per (fault axis, zone): milliseconds of cut links per
	// experiment, and milliseconds of post-heal reconvergence tail.
	DisruptionByTopology map[TopologyKey][]float64
	RecoveryByTopology   map[TopologyKey][]float64
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		OFCounts:        make(map[workload.Kind]map[InjGroup]map[classify.OF]int),
		CFCounts:        make(map[workload.Kind]map[InjGroup]map[classify.CF]int),
		OFToCF:          make(map[workload.Kind]map[classify.OF]map[classify.CF]int),
		ZByOF:           make(map[workload.Kind]map[classify.OF][]float64),
		UserErrByOF:     make(map[workload.Kind]map[classify.OF]int),
		FailoverByFault: make(map[inject.FaultType][]float64),
		StaleByFault:    make(map[inject.FaultType][]float64),

		OutageByAdmission:     make(map[AdmissionKey][]float64),
		ViolationsByAdmission: make(map[AdmissionKey][]int),

		DisruptionByTopology: make(map[TopologyKey][]float64),
		RecoveryByTopology:   make(map[TopologyKey][]float64),
	}
}

// Add folds one result in.
func (a *Aggregate) Add(res *Result) {
	a.Results = append(a.Results, res)
	wl := res.Spec.Workload
	group := GroupBitFlip
	if res.Spec.Injection != nil {
		group = GroupOf(res.Spec.Injection.Type)
	}
	if a.OFCounts[wl] == nil {
		a.OFCounts[wl] = make(map[InjGroup]map[classify.OF]int)
		a.CFCounts[wl] = make(map[InjGroup]map[classify.CF]int)
		a.OFToCF[wl] = make(map[classify.OF]map[classify.CF]int)
		a.ZByOF[wl] = make(map[classify.OF][]float64)
		a.UserErrByOF[wl] = make(map[classify.OF]int)
	}
	if a.OFCounts[wl][group] == nil {
		a.OFCounts[wl][group] = make(map[classify.OF]int)
		a.CFCounts[wl][group] = make(map[classify.CF]int)
	}
	a.OFCounts[wl][group][res.OF]++
	a.CFCounts[wl][group][res.CF]++
	if a.OFToCF[wl][res.OF] == nil {
		a.OFToCF[wl][res.OF] = make(map[classify.CF]int)
	}
	a.OFToCF[wl][res.OF][res.CF]++
	a.ZByOF[wl][res.OF] = append(a.ZByOF[wl][res.OF], res.Z)
	if res.UserErrors > 0 {
		a.UserErrByOF[wl][res.OF]++
	}
	if res.Report.Fired {
		a.Fired++
		if res.Report.Activated {
			a.Activated++
		}
	}
	if res.Spec.Injection != nil && res.Spec.Injection.Type.IsControlPlane() {
		t := res.Spec.Injection.Type
		a.FailoverByFault[t] = append(a.FailoverByFault[t], res.FailoverMillis)
		a.StaleByFault[t] = append(a.StaleByFault[t], res.StaleReadMillis)
	}
	if res.Spec.Injection != nil && res.Spec.Injection.Type.IsAdmission() {
		k := AdmissionKey{Fault: res.Spec.Injection.Type, Policy: res.Spec.Injection.Policy}
		a.OutageByAdmission[k] = append(a.OutageByAdmission[k], res.AdmissionOutageMillis)
		a.ViolationsByAdmission[k] = append(a.ViolationsByAdmission[k], res.PolicyViolations)
	}
	if res.Spec.Injection != nil && res.Spec.Injection.Type.IsTopology() {
		zone, _ := res.Spec.Injection.Value.(string)
		k := TopologyKey{Fault: res.Spec.Injection.Type, Zone: zone}
		a.DisruptionByTopology[k] = append(a.DisruptionByTopology[k], res.TopologyDisruptionMillis)
		a.RecoveryByTopology[k] = append(a.RecoveryByTopology[k], res.TopologyRecoveryMillis)
	}
}

// Total returns the number of aggregated experiments.
func (a *Aggregate) Total() int { return len(a.Results) }

// TotalOF counts results in an OF category across workloads and groups.
func (a *Aggregate) TotalOF(of classify.OF) int {
	n := 0
	for _, res := range a.Results {
		if res.OF == of {
			n++
		}
	}
	return n
}

// ActivationRate returns the fraction of fired injections whose instance
// was later requested (the paper reports 82%).
func (a *Aggregate) ActivationRate() float64 {
	if a.Fired == 0 {
		return 0
	}
	return float64(a.Activated) / float64(a.Fired)
}

// CriticalFieldShare computes the F2 statistic: among experiments that
// ended in a critical failure (Sta, Out, or client SU), the share whose
// injected field belongs to each category.
func (a *Aggregate) CriticalFieldShare() (byCategory map[FieldCategory]int, total int) {
	byCategory = make(map[FieldCategory]int)
	for _, res := range a.Results {
		if res.Spec.Injection == nil || res.Spec.Injection.FieldPath == "" {
			continue
		}
		critical := res.OF == classify.OFSta || res.OF == classify.OFOut || res.CF == classify.CFSU
		if !critical {
			continue
		}
		byCategory[Categorize(res.Spec.Injection.FieldPath)]++
		total++
	}
	return byCategory, total
}

// CriticalFields returns the distinct fields whose injections caused
// critical failures (input to the §V-C2 refinement round).
func (a *Aggregate) CriticalFields() []inject.RecordedField {
	seen := make(map[string]inject.RecordedField)
	for _, res := range a.Results {
		in := res.Spec.Injection
		if in == nil || in.FieldPath == "" {
			continue
		}
		critical := res.OF == classify.OFSta || res.OF == classify.OFOut || res.CF == classify.CFSU
		if !critical {
			continue
		}
		key := string(in.Kind) + "\x00" + in.FieldPath
		if _, ok := seen[key]; !ok {
			seen[key] = inject.RecordedField{Kind: in.Kind, Path: in.FieldPath, FieldKind: fieldKindOf(res)}
		}
	}
	out := make([]inject.RecordedField, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// fieldKindOf infers the field's type from the observed old value of the
// fired injection (set-value faults know their type; bit flips report what
// they read).
func fieldKindOf(res *Result) codec.FieldKind {
	val := res.Report.OldValue
	if val == nil {
		val = res.Spec.Injection.Value
	}
	switch val.(type) {
	case int64, int:
		return codec.FieldInt
	case bool:
		return codec.FieldBool
	default:
		return codec.FieldString
	}
}
