// Package hypervisor models the provider side of NetKernel: hosts with
// physical NICs, virtual switches and CPU cores; tenant VMs (legacy or
// NetKernel mode); Network Stack Modules in their §5 forms (VM,
// container, hypervisor module); and the CoreEngine daemon that boots
// NSMs and shuttles nqes between GuestLib and ServiceLib.
package hypervisor

import "time"

// NSMForm is the realization of a Network Stack Module. §5 "NSM form":
// "They may be (1) full-fledged VMs with a monolithic kernel … (2)
// lightweight unikernel-based VMs … or (3) even containers or modules
// running on the hypervisor. Each choice implies vastly different
// tradeoffs."
type NSMForm int

// Forms.
const (
	// FormVM is the prototype's choice: a full KVM VM (1 core, 1 GB in
	// §4.1). Most flexible and best isolated; heaviest.
	FormVM NSMForm = iota
	// FormUnikernel is a minimal library-OS VM.
	FormUnikernel
	// FormContainer is a namespaced process on the host.
	FormContainer
	// FormModule runs inside the hypervisor itself: cheapest, weakest
	// isolation.
	FormModule
)

func (f NSMForm) String() string {
	return [...]string{"vm", "unikernel", "container", "module"}[f]
}

// FormProfile quantifies a form's tradeoffs. The numbers are
// representative of the class, not measurements: a full VM boots in
// seconds and pays VM-exit-scale notification costs, a container in
// hundreds of milliseconds with cheaper IPC, a hypervisor module is
// nearly free but shares the hypervisor's fault domain.
type FormProfile struct {
	// BootTime is how long after CreateVM the NSM serves its queues.
	BootTime time.Duration
	// NotifyLatency is the one-way notification latency between the
	// guest/NSM and the CoreEngine.
	NotifyLatency time.Duration
	// MemoryMB is the module's resident footprint.
	MemoryMB int
	// DedicatedCores is the default core reservation.
	DedicatedCores int
	// Isolation grades the fault/security containment.
	Isolation string
}

// Profile returns the form's default profile. The prototype's NSM (a
// KVM VM with 1 core and 1 GB RAM, §4.1) is FormVM.
func (f NSMForm) Profile() FormProfile {
	switch f {
	case FormUnikernel:
		return FormProfile{
			BootTime:       150 * time.Millisecond,
			NotifyLatency:  2 * time.Microsecond,
			MemoryMB:       64,
			DedicatedCores: 1,
			Isolation:      "hardware (minimal TCB)",
		}
	case FormContainer:
		return FormProfile{
			BootTime:       300 * time.Millisecond,
			NotifyLatency:  1 * time.Microsecond,
			MemoryMB:       128,
			DedicatedCores: 1,
			Isolation:      "namespace",
		}
	case FormModule:
		return FormProfile{
			BootTime:       10 * time.Millisecond,
			NotifyLatency:  300 * time.Nanosecond,
			MemoryMB:       32,
			DedicatedCores: 0, // shares hypervisor cores
			Isolation:      "none (hypervisor address space)",
		}
	default: // FormVM
		return FormProfile{
			BootTime:       3 * time.Second,
			NotifyLatency:  3 * time.Microsecond,
			MemoryMB:       1024,
			DedicatedCores: 1,
			Isolation:      "hardware",
		}
	}
}
