//! Max-min fair bandwidth allocation by progressive filling.
//!
//! Each flow crosses a set of capacity constraints (network links and
//! server resources, treated uniformly). Allocation starts at each
//! flow's guaranteed minimum (its virtual-circuit reservation, 0 for
//! best-effort flows) and grows uniformly across all unfrozen flows
//! until either a constraint saturates (its flows freeze at the fair
//! share) or a flow reaches its own maximum (it freezes at its cap).
//! The result is the classic max-min fair allocation with floors and
//! ceilings.
//!
//! [`FairShareSolver`] is the reusable workspace the fluid simulator
//! owns: it allocates nothing once warm and only visits the
//! constraints the current flows cross. Flows name their constraint
//! list by [`RouteClass`]: the workspace interns each distinct list
//! once, so the flows of one route (GridFTP transfers between the same
//! two servers) share one list and one set of per-round checks.
//! [`max_min_allocation`] is the one-shot convenience form over a fresh
//! workspace.
//!
//! # Bit-identity
//!
//! The solver performs the same float operations in the same order as
//! the textbook dense formulation (every constraint, every flow, counts
//! rebuilt each round), so its output is identical bit for bit — the
//! test suite holds it to that against a dense oracle. Only
//! order-independent work is reorganised:
//!
//! - Untouched constraints never bound an increment, and the minimum
//!   over strictly positive candidates does not depend on scan order.
//! - Active counts are decremented as flows freeze instead of being
//!   rebuilt.
//! - A round subtracts its increment from a constraint once per active
//!   flow crossing it. The subtrahends are all equal, so subtracting
//!   `counts[c]` times per constraint is the per-flow loop's sequence.
//! - A zero starting allocation is not subtracted: `x - 0.0 == x` for
//!   every `x`, signed zeros included.
//! - Saturation freezes every active flow on a saturated constraint,
//!   so it is decided once per route class, not once per flow.
//! - **Dominated constraints are dropped.** Two constraints crossed by
//!   the same set of present route classes are crossed by exactly the
//!   same flows, so they receive the same subtractions in the same
//!   order, in the initial subtraction and in every round, and the same
//!   clamps at zero. Rounding is monotone (`a <= b` implies
//!   `fl(a - d) <= fl(b - d)`, `fl(a / n) <= fl(b / n)` and
//!   `a.max(0.0) <= b.max(0.0)`), so the one with the least remaining
//!   capacity after the initial subtraction stays lowest for the whole
//!   solve: it alone can set an increment (the minimum is exact) or
//!   saturate first. The others are dropped for the filling rounds; the
//!   over-admission pass, whose sums differ per constraint, and the
//!   initial subtraction keep the full lists.
//!
//! Solving disconnected components separately would *not* be
//! bit-identical: each round's increment is the minimum over all flows,
//! so splitting changes how the accumulated rates round.

use std::collections::HashMap;

/// Index of a capacity constraint in the solver's constraint table.
pub type ConstraintIx = usize;

/// One capacity constraint (a link direction or a server resource).
#[derive(Debug, Clone, Copy)]
pub struct CapacityConstraint {
    /// Capacity in bits per second.
    pub capacity_bps: f64,
}

/// One flow's demand for the solver.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// Constraints the flow crosses (indices into the constraint
    /// table). Duplicate entries are permitted and count once.
    pub constraints: Vec<ConstraintIx>,
    /// Guaranteed minimum rate (virtual-circuit reservation), bps.
    pub min_rate_bps: f64,
    /// Maximum useful rate (TCP window cap etc.), bps. Use
    /// `f64::INFINITY` for unconstrained.
    pub max_rate_bps: f64,
}

/// A constraint list interned by [`FairShareSolver::intern`]: every
/// flow pushed with the same class crosses the same constraints. Valid
/// only for the workspace that interned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteClass(usize);

/// Tolerance for saturation tests. Absolute, in the allocation's rate
/// unit; tiny relative to any real capacity.
const EPS: f64 = 1e-9;

/// Marks an unset per-class or per-group slot.
const NONE: usize = usize::MAX;

/// One pushed flow: its class, as an index into `class_span`.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    class: usize,
    min_rate_bps: f64,
    max_rate_bps: f64,
}

/// Per-solve state of one route class some pushed flow belongs to.
#[derive(Debug, Clone, Copy)]
struct PresentClass {
    /// The class's full list is `class_cons[at..end]`.
    at: usize,
    end: usize,
    /// Its undominated constraints are `kept_cons[kept_at..kept_end]`.
    kept_at: usize,
    kept_end: usize,
    /// Flows of the class still growing.
    active: usize,
}

/// A reusable max-min solver workspace.
///
/// Intern each distinct constraint list once with
/// [`FairShareSolver::intern`]; push the problem's flows with
/// [`FairShareSolver::push_flow`], then call
/// [`FairShareSolver::solve`] with the capacity table; call
/// [`FairShareSolver::clear`] before the next problem. Interned classes
/// and every buffer's capacity survive `clear`, so a warm workspace
/// solves without allocating.
///
/// ```
/// use gvc_net::fairshare::FairShareSolver;
///
/// let mut solver = FairShareSolver::new();
/// // Link 0 (10 units) carries both flows; link 1 (4 units) only the
/// // second, which is bottlenecked there.
/// let (wide, narrow) = (solver.intern(&[0]), solver.intern(&[0, 1]));
/// solver.push_flow(wide, 0.0, f64::INFINITY);
/// solver.push_flow(narrow, 0.0, f64::INFINITY);
/// assert_eq!(solver.solve(&[10.0, 4.0]), &[6.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FairShareSolver {
    /// Interned lists and their classes.
    classes: HashMap<Box<[ConstraintIx]>, RouteClass>,
    /// Every class's list, concatenated: class `k` crosses
    /// `class_cons[a..b]` for `(a, b) = class_span[k]`.
    class_cons: Vec<ConstraintIx>,
    class_span: Vec<(usize, usize)>,
    /// Per class, its index in `present` during a solve, else `NONE`.
    class_pos: Vec<usize>,
    flows: Vec<FlowSlot>,
    /// Per-flow rate (the result) and index into `present`.
    alloc: Vec<f64>,
    flow_pos: Vec<usize>,
    /// The flows still growing, in push order.
    live: Vec<usize>,
    /// The classes of the pushed flows, in order of first push.
    present: Vec<PresentClass>,
    /// Per present class: merge cursor and membership scratch for the
    /// over-admission pass.
    cursor: Vec<usize>,
    member: Vec<bool>,
    /// Per-constraint state, indexed by [`ConstraintIx`]; only the
    /// entries listed in `touched` are meaningful during a solve.
    remaining: Vec<f64>,
    counts: Vec<usize>,
    seen: Vec<bool>,
    group: Vec<usize>,
    /// The constraints crossed by at least one flow.
    touched: Vec<ConstraintIx>,
    /// Per group of constraints crossed by the same classes: the group
    /// it splits into for the class being refined (`split_by` names
    /// that class) and the constraint kept for it.
    split: Vec<usize>,
    split_by: Vec<usize>,
    rep: Vec<ConstraintIx>,
    /// The undominated constraints, and each present class's share of
    /// them, concatenated.
    kept: Vec<ConstraintIx>,
    kept_cons: Vec<ConstraintIx>,
}

impl FairShareSolver {
    /// An empty workspace.
    pub fn new() -> FairShareSolver {
        FairShareSolver::default()
    }

    /// The class of flows crossing `constraints`, interning the list on
    /// first sight. Indices are checked against the capacity table at
    /// [`FairShareSolver::solve`].
    ///
    /// # Panics
    /// Panics unless `constraints` is strictly increasing (sorted,
    /// without duplicates); [`max_min_allocation`] normalises for
    /// callers holding unsorted lists.
    pub fn intern(&mut self, constraints: &[ConstraintIx]) -> RouteClass {
        if let Some(&class) = self.classes.get(constraints) {
            return class;
        }
        assert!(
            constraints.windows(2).all(|w| w.first() < w.last()),
            "constraint list must be sorted and duplicate-free"
        );
        let class = RouteClass(self.class_span.len());
        let at = self.class_cons.len();
        self.class_cons.extend_from_slice(constraints);
        self.class_span.push((at, self.class_cons.len()));
        self.class_pos.push(NONE);
        self.classes.insert(constraints.into(), class);
        class
    }

    /// Forgets the pushed flows, keeping the interned classes and every
    /// buffer's capacity.
    pub fn clear(&mut self) {
        self.flows.clear();
    }

    /// Adds a flow of route `class` with a guaranteed minimum and a
    /// maximum rate (`f64::INFINITY` for uncapped).
    ///
    /// # Panics
    /// Panics when `class` was not interned by this workspace.
    pub fn push_flow(&mut self, class: RouteClass, min_rate_bps: f64, max_rate_bps: f64) {
        assert!(class.0 < self.class_span.len(), "route class of another workspace");
        self.flows.push(FlowSlot { class: class.0, min_rate_bps, max_rate_bps });
    }

    /// Solves the pushed flows against `capacities` (bps, indexed by
    /// [`ConstraintIx`]). Returns one rate per flow, in push order.
    ///
    /// Guarantees that exceed a constraint's capacity are scaled down
    /// proportionally on that constraint (over-admission is the
    /// admission controller's bug, but the solver stays well-defined).
    /// Flows with an empty constraint list receive their maximum rate
    /// (or their guarantee if the maximum is infinite).
    ///
    /// # Panics
    /// Panics when a flow names a constraint outside `capacities`.
    pub fn solve(&mut self, capacities: &[f64]) -> &[f64] {
        let FairShareSolver {
            classes: _,
            class_cons,
            class_span,
            class_pos,
            flows,
            alloc,
            flow_pos,
            live,
            present,
            cursor,
            member,
            remaining,
            counts,
            seen,
            group,
            touched,
            split,
            split_by,
            rep,
            kept,
            kept_cons,
        } = self;
        if seen.len() < capacities.len() {
            remaining.resize(capacities.len(), 0.0);
            counts.resize(capacities.len(), 0);
            seen.resize(capacities.len(), false);
            group.resize(capacities.len(), 0);
        }

        // The classes present, in order of first push.
        present.clear();
        flow_pos.clear();
        for f in flows.iter() {
            if class_pos[f.class] == NONE {
                class_pos[f.class] = present.len();
                let (at, end) = class_span[f.class];
                present.push(PresentClass { at, end, kept_at: 0, kept_end: 0, active: 0 });
            }
            flow_pos.push(class_pos[f.class]);
        }
        for f in flows.iter() {
            class_pos[f.class] = NONE;
        }

        // Touch only the constraints some flow crosses, each in the one
        // group the dominance pass below starts from.
        touched.clear();
        let mut negative = false;
        for pc in present.iter() {
            let cs = &class_cons[pc.at..pc.end];
            assert!(
                cs.last().is_none_or(|&c| c < capacities.len()),
                "constraint index out of range"
            );
            for &c in cs {
                if !seen[c] {
                    seen[c] = true;
                    touched.push(c);
                    remaining[c] = capacities[c];
                    counts[c] = 0;
                    group[c] = 0;
                    negative |= capacities[c] < 0.0;
                }
            }
        }
        for &c in touched.iter() {
            seen[c] = false;
        }

        alloc.clear();
        alloc.extend(flows.iter().map(|f| f.min_rate_bps.min(f.max_rate_bps)));

        // Scale guarantees down where over-admitted. With every
        // starting allocation zero no committed sum can exceed a
        // non-negative capacity, so the pass is skipped.
        if negative || alloc.iter().any(|&a| a != 0.0) {
            // Constraints in ascending order, as each scaling sees the
            // allocations earlier constraints left. Every class list is
            // sorted, so a per-class cursor finds the classes crossing
            // each constraint in one merge; the sum runs over flows in
            // push order.
            touched.sort_unstable();
            cursor.clear();
            cursor.extend(present.iter().map(|pc| pc.at));
            for &c in touched.iter() {
                member.clear();
                member.extend(present.iter().zip(cursor.iter_mut()).map(|(pc, at)| {
                    let hit = *at < pc.end && class_cons.get(*at) == Some(&c);
                    if hit {
                        *at += 1;
                    }
                    hit
                }));
                let committed: f64 = alloc
                    .iter()
                    .zip(flow_pos.iter())
                    .filter(|(_, &p)| member[p])
                    .map(|(&a, _)| a)
                    .sum();
                if committed > capacities[c] {
                    let scale = capacities[c] / committed;
                    for (a, _) in alloc.iter_mut().zip(flow_pos.iter()).filter(|(_, &p)| member[p])
                    {
                        *a *= scale;
                    }
                }
            }
        }

        for (&a, &p) in alloc.iter().zip(flow_pos.iter()) {
            // `x - 0.0 == x`: a zero allocation subtracts nothing.
            if a.to_bits() == 0 {
                continue;
            }
            let pc = &present[p];
            for &c in &class_cons[pc.at..pc.end] {
                remaining[c] -= a;
            }
        }

        // Group the touched constraints by the classes crossing them:
        // start from one group and split each group by each class.
        split.clear();
        split_by.clear();
        split.push(NONE);
        split_by.push(NONE);
        for (p, pc) in present.iter().enumerate() {
            for &c in &class_cons[pc.at..pc.end] {
                let g = group[c];
                if split_by[g] != p {
                    split_by[g] = p;
                    split[g] = split.len();
                    split.push(NONE);
                    split_by.push(NONE);
                }
                group[c] = split[g];
            }
        }
        // Clamp at zero, and keep the constraint with the least
        // remaining capacity in each group (the first of equals).
        rep.clear();
        rep.resize(split.len(), NONE);
        for &c in touched.iter() {
            remaining[c] = remaining[c].max(0.0);
            let r = &mut rep[group[c]];
            if *r == NONE || remaining[c] < remaining[*r] {
                *r = c;
            }
        }
        kept.clear();
        kept.extend(touched.iter().copied().filter(|&c| rep[group[c]] == c));
        kept_cons.clear();
        for pc in present.iter_mut() {
            pc.kept_at = kept_cons.len();
            kept_cons
                .extend(class_cons[pc.at..pc.end].iter().copied().filter(|&c| rep[group[c]] == c));
            pc.kept_end = kept_cons.len();
        }

        // Active = can still grow: below max and on no saturated
        // constraint. Flows with no constraints get their cap
        // immediately (nothing to share against); infinite caps
        // degrade to zero extra.
        live.clear();
        for (i, (f, a)) in flows.iter().zip(alloc.iter_mut()).enumerate() {
            let pc = &mut present[flow_pos[i]];
            if pc.at == pc.end {
                if f.max_rate_bps.is_finite() {
                    *a = f.max_rate_bps;
                }
                continue;
            }
            if *a + EPS < f.max_rate_bps
                && kept_cons[pc.kept_at..pc.kept_end].iter().all(|&c| remaining[c] > EPS)
            {
                pc.active += 1;
                live.push(i);
            }
        }
        for pc in present.iter() {
            for &c in &kept_cons[pc.kept_at..pc.kept_end] {
                counts[c] += pc.active;
            }
        }

        while !live.is_empty() {
            // Largest uniform increment before a constraint saturates
            // or a flow hits its cap. Every candidate is strictly
            // positive, so the scan order cannot change the minimum.
            let mut delta = f64::INFINITY;
            for &c in kept.iter() {
                if counts[c] > 0 {
                    delta = delta.min(remaining[c] / counts[c] as f64);
                }
            }
            for &i in live.iter() {
                delta = delta.min(flows[i].max_rate_bps - alloc[i]);
            }
            if !delta.is_finite() || delta <= 0.0 {
                break;
            }

            for &c in kept.iter() {
                for _ in 0..counts[c] {
                    remaining[c] -= delta;
                }
            }
            live.retain(|&i| {
                let a = &mut alloc[i];
                *a += delta;
                if *a + EPS < flows[i].max_rate_bps {
                    return true;
                }
                let pc = &mut present[flow_pos[i]];
                pc.active -= 1;
                for &c in &kept_cons[pc.kept_at..pc.kept_end] {
                    counts[c] -= 1;
                }
                false
            });
            for &c in kept.iter() {
                remaining[c] = remaining[c].max(0.0);
            }
            let mut frozen = false;
            for pc in present.iter_mut().filter(|pc| pc.active > 0) {
                let cs = &kept_cons[pc.kept_at..pc.kept_end];
                if cs.iter().any(|&c| remaining[c] <= EPS) {
                    for &c in cs {
                        counts[c] -= pc.active;
                    }
                    pc.active = 0;
                    frozen = true;
                }
            }
            if frozen {
                live.retain(|&i| present[flow_pos[i]].active > 0);
            }
        }

        alloc
    }
}

/// Computes the max-min fair allocation over a fresh
/// [`FairShareSolver`]. Returns one rate per flow, in input order; see
/// [`FairShareSolver::solve`] for the handling of over-admitted
/// guarantees and unconstrained flows.
///
/// # Panics
/// Panics when a flow names a constraint outside `constraints`.
pub fn max_min_allocation(constraints: &[CapacityConstraint], flows: &[FlowDemand]) -> Vec<f64> {
    let capacities: Vec<f64> = constraints.iter().map(|c| c.capacity_bps).collect();
    let mut solver = FairShareSolver::new();
    let mut cs = Vec::new();
    for f in flows {
        cs.clone_from(&f.constraints);
        cs.sort_unstable();
        cs.dedup();
        let class = solver.intern(&cs);
        solver.push_flow(class, f.min_rate_bps, f.max_rate_bps);
    }
    solver.solve(&capacities).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense reference formulation: every constraint and every flow
    /// each round, counts rebuilt per round, an over-admission pass
    /// over all constraints. [`FairShareSolver`] must match it bit for
    /// bit.
    fn dense_oracle(constraints: &[CapacityConstraint], flows: &[FlowDemand]) -> Vec<f64> {
        let mut alloc: Vec<f64> =
            flows.iter().map(|f| f.min_rate_bps.min(f.max_rate_bps)).collect();

        let flow_constraints: Vec<Vec<ConstraintIx>> = flows
            .iter()
            .map(|f| {
                let mut v = f.constraints.clone();
                v.sort_unstable();
                v.dedup();
                for &c in &v {
                    assert!(c < constraints.len(), "constraint index out of range");
                }
                v
            })
            .collect();

        for (ci, c) in constraints.iter().enumerate() {
            let committed: f64 = flows
                .iter()
                .enumerate()
                .filter(|(fi, _)| flow_constraints[*fi].contains(&ci))
                .map(|(fi, _)| alloc[fi])
                .sum();
            if committed > c.capacity_bps {
                let scale = c.capacity_bps / committed;
                for (fi, _) in flows.iter().enumerate() {
                    if flow_constraints[fi].contains(&ci) {
                        alloc[fi] *= scale;
                    }
                }
            }
        }

        let mut remaining: Vec<f64> = constraints.iter().map(|c| c.capacity_bps).collect();
        for (fi, _) in flows.iter().enumerate() {
            for &c in &flow_constraints[fi] {
                remaining[c] -= alloc[fi];
            }
        }
        for r in &mut remaining {
            *r = r.max(0.0);
        }

        let mut active: Vec<bool> = flows
            .iter()
            .enumerate()
            .map(|(fi, f)| !flow_constraints[fi].is_empty() && alloc[fi] + EPS < f.max_rate_bps)
            .collect();
        for (fi, f) in flows.iter().enumerate() {
            if flow_constraints[fi].is_empty() && f.max_rate_bps.is_finite() {
                alloc[fi] = f.max_rate_bps;
            }
        }

        loop {
            let mut counts = vec![0usize; constraints.len()];
            for (fi, _) in flows.iter().enumerate() {
                if active[fi] {
                    for &c in &flow_constraints[fi] {
                        counts[c] += 1;
                    }
                }
            }

            let mut changed = false;
            for (fi, _) in flows.iter().enumerate() {
                if active[fi]
                    && flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS && counts[c] > 0)
                    && flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS)
                {
                    active[fi] = false;
                    changed = true;
                }
            }
            if changed {
                continue;
            }

            if !active.iter().any(|&a| a) {
                break;
            }

            let mut delta = f64::INFINITY;
            for (ci, _) in constraints.iter().enumerate() {
                if counts[ci] > 0 {
                    delta = delta.min(remaining[ci] / counts[ci] as f64);
                }
            }
            for (fi, f) in flows.iter().enumerate() {
                if active[fi] {
                    delta = delta.min(f.max_rate_bps - alloc[fi]);
                }
            }
            if !delta.is_finite() || delta <= 0.0 {
                break;
            }

            for (fi, f) in flows.iter().enumerate() {
                if active[fi] {
                    alloc[fi] += delta;
                    for &c in &flow_constraints[fi] {
                        remaining[c] -= delta;
                    }
                    if alloc[fi] + EPS >= f.max_rate_bps {
                        active[fi] = false;
                    }
                }
            }
            for r in &mut remaining {
                *r = r.max(0.0);
            }
            for (fi, _) in flows.iter().enumerate() {
                if active[fi] && flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS) {
                    active[fi] = false;
                }
            }
        }

        alloc
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A rate drawn from `(kind, value)`: kinds 0–1 give small integers
    /// (ties and exact saturations), 2 gives a continuous value, 3 the
    /// special value `special`.
    fn rate(kind: u8, value: f64, special: f64) -> f64 {
        match kind {
            0 | 1 => value.floor(),
            2 => value,
            _ => special,
        }
    }

    /// Raw draws for one flow: constraint list, guarantee, cap.
    type FlowDraw = (Vec<usize>, (u8, f64), (u8, f64));

    /// Builds one solver problem from raw draws: capacities mixing zero
    /// (a flapped link), infinite, integer and continuous values; flows
    /// with empty or duplicated lists, guarantees that may over-admit,
    /// and finite or infinite caps.
    fn problem(
        caps: &[(u8, f64)],
        flows: &[FlowDraw],
    ) -> (Vec<CapacityConstraint>, Vec<FlowDemand>) {
        let constraints: Vec<CapacityConstraint> = caps
            .iter()
            .map(|&(k, v)| CapacityConstraint {
                capacity_bps: match k {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => rate(k - 2, v, v),
                },
            })
            .collect();
        let demands = flows
            .iter()
            .map(|(cs, (gk, gv), (mk, mv))| FlowDemand {
                constraints: cs.iter().map(|&c| c % constraints.len()).collect(),
                min_rate_bps: if *gk % 2 == 0 { 0.0 } else { rate(*gk / 2, *gv, *gv) },
                max_rate_bps: rate(*mk, *mv, f64::INFINITY),
            })
            .collect();
        (constraints, demands)
    }

    fn caps(v: &[f64]) -> Vec<CapacityConstraint> {
        v.iter().map(|&c| CapacityConstraint { capacity_bps: c }).collect()
    }

    fn flow(cs: &[usize], min: f64, max: f64) -> FlowDemand {
        FlowDemand { constraints: cs.to_vec(), min_rate_bps: min, max_rate_bps: max }
    }

    #[test]
    fn equal_split_single_link() {
        let a = max_min_allocation(
            &caps(&[10e9]),
            &[flow(&[0], 0.0, f64::INFINITY), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 5e9).abs() < 1e3);
        assert!((a[1] - 5e9).abs() < 1e3);
    }

    #[test]
    fn capped_flow_frees_capacity() {
        let a = max_min_allocation(
            &caps(&[10e9]),
            &[flow(&[0], 0.0, 2e9), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 2e9).abs() < 1e3);
        assert!((a[1] - 8e9).abs() < 1e3);
    }

    #[test]
    fn classic_three_flow_two_link() {
        // Link0: f0, f2. Link1: f1, f2. caps 10, 4.
        // f2 bottlenecked on link1 at 2, f1 gets 2, f0 gets 8.
        let a = max_min_allocation(
            &caps(&[10.0, 4.0]),
            &[
                flow(&[0], 0.0, f64::INFINITY),
                flow(&[1], 0.0, f64::INFINITY),
                flow(&[0, 1], 0.0, f64::INFINITY),
            ],
        );
        assert!((a[2] - 2.0).abs() < 1e-6, "{a:?}");
        assert!((a[1] - 2.0).abs() < 1e-6, "{a:?}");
        assert!((a[0] - 8.0).abs() < 1e-6, "{a:?}");
    }

    #[test]
    fn guaranteed_minimum_respected() {
        // Circuit flow guaranteed 6 of 10; one best-effort competitor.
        let a = max_min_allocation(
            &caps(&[10.0]),
            &[flow(&[0], 6.0, 6.0), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 6.0).abs() < 1e-6);
        assert!((a[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn circuit_can_scavenge_above_guarantee() {
        // Guarantee 2, cap inf: alone on the link it takes everything.
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0], 2.0, f64::INFINITY)]);
        assert!((a[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn over_admitted_guarantees_scale_down() {
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0], 8.0, 8.0), flow(&[0], 8.0, 8.0)]);
        assert!((a[0] - 5.0).abs() < 1e-6);
        assert!((a[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn empty_constraint_list_gets_cap() {
        let a = max_min_allocation(&caps(&[]), &[flow(&[], 0.0, 7.0)]);
        assert_eq!(a, vec![7.0]);
    }

    #[test]
    fn duplicate_constraints_count_once() {
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0, 0, 0], 0.0, f64::INFINITY)]);
        assert!((a[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn no_flows_is_empty() {
        assert!(max_min_allocation(&caps(&[1.0]), &[]).is_empty());
    }

    #[test]
    fn server_resource_models_eq2_sharing() {
        // Eq. 2's premise: a server cap R shared by concurrent
        // transfers. Three transfers through one server resource
        // (R = 2.19 Gbps) on otherwise-idle 10 G links.
        let a = max_min_allocation(
            &caps(&[2.19e9, 10e9, 10e9, 10e9]),
            &[
                flow(&[0, 1], 0.0, f64::INFINITY),
                flow(&[0, 2], 0.0, f64::INFINITY),
                flow(&[0, 3], 0.0, f64::INFINITY),
            ],
        );
        for r in a {
            assert!((r - 0.73e9).abs() < 1e3);
        }
    }

    proptest! {
        /// Feasibility: no constraint is ever over-allocated, and every
        /// flow is within [scaled-min, max].
        #[test]
        fn prop_feasible(
            ncons in 1usize..6,
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 0..4), 0.0f64..5.0, 0.1f64..50.0),
                1..12,
            ),
        ) {
            let constraints = caps(&vec![10.0; ncons]);
            let demands: Vec<FlowDemand> = flows
                .iter()
                .map(|(cs, min, max)| {
                    let cs: Vec<usize> = cs.iter().map(|&c| c % ncons).collect();
                    flow(&cs, min.min(*max), *max)
                })
                .collect();
            let alloc = max_min_allocation(&constraints, &demands);
            // Per-constraint feasibility.
            for ci in 0..ncons {
                let used: f64 = demands
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.constraints.contains(&ci))
                    .map(|(fi, _)| alloc[fi])
                    .sum();
                prop_assert!(used <= 10.0 + 1e-3, "constraint {ci} used {used}");
            }
            // Per-flow bounds.
            for (fi, d) in demands.iter().enumerate() {
                prop_assert!(alloc[fi] <= d.max_rate_bps + 1e-6);
                prop_assert!(alloc[fi] >= -1e-9);
            }
        }

        /// Pareto efficiency: any flow below its cap must cross at
        /// least one (numerically) saturated constraint.
        #[test]
        fn prop_pareto(
            flows in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 1..3),
                1..8,
            ),
        ) {
            let constraints = caps(&[9.0, 9.0, 9.0]);
            let demands: Vec<FlowDemand> = flows
                .iter()
                .map(|cs| flow(cs, 0.0, f64::INFINITY))
                .collect();
            let alloc = max_min_allocation(&constraints, &demands);
            let mut used = [0.0f64; 3];
            for (fi, d) in demands.iter().enumerate() {
                let mut cs = d.constraints.clone();
                cs.sort_unstable();
                cs.dedup();
                for c in cs {
                    used[c] += alloc[fi];
                }
            }
            for (fi, d) in demands.iter().enumerate() {
                // Every flow here has infinite cap, so it must be
                // bottlenecked by a saturated constraint.
                let sat = d.constraints.iter().any(|&c| used[c] >= 9.0 - 1e-3);
                prop_assert!(sat, "flow {fi} rate {} not bottlenecked: used={used:?}", alloc[fi]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted and duplicate-free")]
    fn unsorted_push_panics() {
        FairShareSolver::new().intern(&[2, 1]);
    }

    #[test]
    #[should_panic(expected = "constraint index out of range")]
    fn out_of_range_constraint_panics() {
        let mut solver = FairShareSolver::new();
        let class = solver.intern(&[3]);
        solver.push_flow(class, 0.0, 1.0);
        solver.solve(&[1.0]);
    }

    proptest! {
        /// The workspace solver is bit-identical to the dense oracle.
        /// Each case solves a sequence of problems on one workspace, so
        /// state left behind by a larger or differently shaped problem
        /// is exercised too.
        #[test]
        fn prop_bit_identical_to_dense_oracle(
            problems in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..6, 0.0f64..20.0), 1..9),
                    proptest::collection::vec(
                        (
                            proptest::collection::vec(0usize..16, 0..6),
                            (0u8..8, 0.0f64..12.0),
                            (0u8..5, 0.1f64..15.0),
                        ),
                        0..12,
                    ),
                ),
                1..6,
            ),
        ) {
            let mut solver = FairShareSolver::new();
            let mut cs = Vec::new();
            for (cap_draws, flow_draws) in &problems {
                let (cons, flows) = problem(cap_draws, flow_draws);
                let want = bits(&dense_oracle(&cons, &flows));
                let capacities: Vec<f64> = cons.iter().map(|c| c.capacity_bps).collect();
                solver.clear();
                for f in &flows {
                    cs.clone_from(&f.constraints);
                    cs.sort_unstable();
                    cs.dedup();
                    let class = solver.intern(&cs);
                    solver.push_flow(class, f.min_rate_bps, f.max_rate_bps);
                }
                prop_assert_eq!(bits(solver.solve(&capacities)), want.clone(), "{:?} {:?}", cons, flows);
                prop_assert_eq!(bits(&max_min_allocation(&cons, &flows)), want);
            }
        }
    }

    /// Raw draws for one route-class problem: capacities, then per
    /// class a constraint mask, then per flow its class, guarantee and
    /// cap.
    type ClassDraw = (Vec<(u8, f64)>, Vec<u16>, Vec<(usize, (u8, f64), (u8, f64))>);

    /// Builds a problem whose flows draw their lists from a few shared
    /// classes, so most constraints share their set of crossing classes
    /// with others and are dominated. Class `k`'s list is the set bits
    /// of its mask over the constraint table. With `spread` the mask is
    /// `k + 1` and flow `i` takes class `i`, so over at least 7
    /// constraints up to 127 distinct classes are all present.
    /// Capacities come from few small values (equal and unequal
    /// dominated constraints), zero and infinity.
    fn class_problem(
        (cap_draws, masks, flow_draws): &ClassDraw,
        spread: bool,
    ) -> (Vec<CapacityConstraint>, Vec<FlowDemand>) {
        let constraints: Vec<CapacityConstraint> = cap_draws
            .iter()
            .map(|&(k, v)| CapacityConstraint {
                capacity_bps: match k {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    2 | 3 => (v / 4.0).floor(),
                    _ => v,
                },
            })
            .collect();
        let n = constraints.len();
        let lists: Vec<Vec<ConstraintIx>> = masks
            .iter()
            .enumerate()
            .map(|(k, &m)| {
                let m = if spread { k + 1 } else { usize::from(m) };
                (0..n).filter(|&c| m >> c & 1 == 1).collect()
            })
            .collect();
        let demands = flow_draws
            .iter()
            .enumerate()
            .map(|(i, &(k, (gk, gv), (mk, mv)))| FlowDemand {
                constraints: lists[if spread { i } else { k } % lists.len()].clone(),
                min_rate_bps: if gk % 2 == 0 { 0.0 } else { rate(gk / 2, gv, gv) },
                max_rate_bps: rate(mk, mv, f64::INFINITY),
            })
            .collect();
        (constraints, demands)
    }

    fn class_draws(
        constraints: std::ops::Range<usize>,
        classes: std::ops::Range<usize>,
        flows: std::ops::Range<usize>,
    ) -> impl Strategy<Value = ClassDraw> {
        (
            proptest::collection::vec((0u8..6, 0.0f64..40.0), constraints),
            proptest::collection::vec(0u16..256, classes),
            proptest::collection::vec(
                (0usize..1024, (0u8..8, 0.0f64..12.0), (0u8..5, 0.1f64..15.0)),
                flows,
            ),
        )
    }

    proptest! {
        /// The solver is bit-identical to the dense oracle on problems
        /// built from shared route classes, where dropping dominated
        /// constraints does the most: few classes over many
        /// constraints, and (with `spread`) up to 120 distinct classes
        /// present at once, more than a one-word mask holds. Guarantees
        /// over-admit often enough to run the scaling pass. One
        /// workspace solves the whole sequence, so classes interned by
        /// an earlier problem are reused or left absent.
        #[test]
        fn prop_route_classes_bit_identical_to_dense_oracle(
            few in proptest::collection::vec(class_draws(1..9, 1..4, 0..14), 1..5),
            many in class_draws(7..9, 65..121, 121..160),
        ) {
            let mut solver = FairShareSolver::new();
            let problems = few.iter().map(|d| class_problem(d, false))
                .chain(std::iter::once(class_problem(&many, true)));
            for (cons, flows) in problems {
                let want = bits(&dense_oracle(&cons, &flows));
                let capacities: Vec<f64> = cons.iter().map(|c| c.capacity_bps).collect();
                solver.clear();
                for f in &flows {
                    let class = solver.intern(&f.constraints);
                    solver.push_flow(class, f.min_rate_bps, f.max_rate_bps);
                }
                prop_assert_eq!(bits(solver.solve(&capacities)), want, "{:?} {:?}", cons, flows);
            }
        }
    }
}
