package mgmt

import (
	"sort"

	"netkernel/internal/hypervisor"
	"netkernel/internal/pricing"
)

// Migration drivers (§5 "seamless NSM migration"): with live handoff
// as a hypervisor primitive, the management plane can roll a fleet of
// modules onto a new build one at a time, or consolidate tenants onto
// cheaper forms, billing every move through the pricing models.

// UpgradePlan decides, per module, whether and how to migrate it.
// Returning ok=false skips the module.
type UpgradePlan func(n *hypervisor.NSM) (spec hypervisor.NSMSpec, ok bool)

// RollingUpgrade migrates a host's NSMs one module at a time: the next
// migration only starts once the previous cutover (or abort) has
// completed, so at most one module's tenants are ever stalled. Modules
// are visited in ID order for deterministic replay.
type RollingUpgrade struct {
	host   *hypervisor.Host
	plan   UpgradePlan
	opts   hypervisor.MigrateOptions
	pricer pricing.MigrationPricer

	queue   []*hypervisor.NSM
	done    func(*RollingUpgrade)
	running bool

	// Migrations holds one record per attempted migration, in order;
	// Bill is the total under the pricer (aborts bill nothing); Skipped
	// counts modules the plan declined or the hypervisor refused.
	Migrations []*hypervisor.Migration
	Bill       pricing.MicroUSD
	Skipped    int
}

// NewRollingUpgrade builds a driver over every NSM currently on h.
func NewRollingUpgrade(h *hypervisor.Host, plan UpgradePlan, opts hypervisor.MigrateOptions, pricer pricing.MigrationPricer) *RollingUpgrade {
	u := &RollingUpgrade{host: h, plan: plan, opts: opts, pricer: pricer}
	h.EachNSM(func(n *hypervisor.NSM) { u.queue = append(u.queue, n) })
	sort.Slice(u.queue, func(i, j int) bool { return u.queue[i].ID < u.queue[j].ID })
	return u
}

// Start begins the rolling upgrade; done, if non-nil, fires when the
// last module has migrated (or every module was skipped).
func (u *RollingUpgrade) Start(done func(*RollingUpgrade)) {
	if u.running {
		return
	}
	u.done = done
	u.running = true
	u.step()
}

func (u *RollingUpgrade) step() {
	for len(u.queue) > 0 {
		next := u.queue[0]
		u.queue = u.queue[1:]
		spec, ok := u.plan(next)
		if !ok {
			u.Skipped++
			continue
		}
		m, err := u.host.MigrateNSM(next, spec, u.opts, func(m *hypervisor.Migration) {
			u.record(m)
			u.step()
		})
		if err != nil {
			// The hypervisor refused (already migrated, replicated spec,
			// …): skip it and keep rolling.
			u.Skipped++
			continue
		}
		_ = m
		return // step resumes from the done callback
	}
	u.running = false
	if u.done != nil {
		u.done(u)
	}
}

func (u *RollingUpgrade) record(m *hypervisor.Migration) {
	u.Migrations = append(u.Migrations, m)
	u.Bill += u.pricer.Price(MigrationBill(m))
}

// MigrationBill converts a hypervisor migration record into the
// pricing event it bills as.
func MigrationBill(m *hypervisor.Migration) pricing.MigrationEvent {
	return pricing.MigrationEvent{
		FromForm: m.From.Form.String(),
		ToForm:   m.To.Form.String(),
		VMs:      m.VMs,
		Conns:    m.Conns,
		Stall:    m.Stall,
		Aborted:  m.Aborted,
	}
}

// Consolidate builds a rolling upgrade that moves every module whose
// form bills higher than target (under the per-instance rates) onto
// the target form — the provider packing tenants onto cheaper
// realizations without dropping a connection. Congestion control is
// preserved per module.
func Consolidate(h *hypervisor.Host, target hypervisor.NSMForm, rates pricing.PerInstance, opts hypervisor.MigrateOptions, pricer pricing.MigrationPricer) *RollingUpgrade {
	rate := func(form string) pricing.MicroUSD {
		if r, ok := rates.HourlyByForm[form]; ok {
			return r
		}
		return rates.Default
	}
	return NewRollingUpgrade(h, func(n *hypervisor.NSM) (hypervisor.NSMSpec, bool) {
		if n.Form == target || rate(n.Form.String()) <= rate(target.String()) {
			return hypervisor.NSMSpec{}, false
		}
		return hypervisor.NSMSpec{Form: target, CC: n.CC}, true
	}, opts, pricer)
}
