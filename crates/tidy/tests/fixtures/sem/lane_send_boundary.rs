//! Fixture: a type with interior mutability crossing a lane-spawn
//! boundary. Mapped to `crates/engine/src/lanes.rs`.

/// Carried into lane closures by `fan_out` below.
pub struct LaneCtx {
    pub budget: u64,
    cache: std::cell::RefCell<Vec<u64>>,
}

/// Indirect hazard: reached through `Outer` in the spawn signature.
pub struct Outer {
    ctx: LaneCtx,
    shared: std::rc::Rc<Vec<u8>>,
}

/// The lane-spawn site: its signature names `Outer`, so both the
/// `Rc` field and the nested `RefCell` field are lane hazards.
pub fn fan_out(outer: Outer) {
    std::thread::scope(|s| {
        s.spawn(|| drop(&outer));
    });
}
