use crate::sync::Mutex;

pub fn merge_after_scope(stats: &Mutex<Vec<u64>>, sink: &mut CollectSink) {
    let snapshot = {
        let guard = stats.lock().expect("stats mutex poisoned");
        guard.clone()
    };
    sink.merge(&snapshot);
}

pub fn emit_after_drop(stats: &Mutex<u64>, sink: &mut CollectSink) {
    let guard = stats.lock().expect("stats mutex poisoned");
    let total = *guard;
    drop(guard);
    sink.emit(total);
}

pub fn ordered_nesting(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    let left = a.lock().expect("left mutex poisoned");
    // lock-order: `a` is always taken before `b` (module invariant).
    let right = b.lock().expect("right mutex poisoned");
    *left + *right
}

pub fn chained_temporary(planner: &Mutex<CostModel>, spec: &QuerySpec) -> ExecutionPlan {
    planner.lock().expect("planner mutex poisoned").resolve(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_across_merges_are_fine_in_tests() {
        let stats = Mutex::new(vec![1u64]);
        let guard = stats.lock().expect("stats mutex poisoned");
        CollectSink::default().merge(&guard);
    }
}
