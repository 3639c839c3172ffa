use crate::sync::Mutex;

pub fn merge_under_lock(stats: &Mutex<Vec<u64>>, sink: &mut CollectSink) {
    let guard = stats.lock().expect("stats mutex poisoned");
    sink.merge(&guard);
}

pub fn nested_without_order(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {
    let left = a.lock().expect("left mutex poisoned");
    let right = b.lock().expect("right mutex poisoned");
    *left + *right
}

pub fn execute_under_lock(planner: &Mutex<CostModel>, engine: &Engine, areas: &[Rect]) {
    let plan = planner.lock().expect("planner mutex poisoned");
    engine.execute_batch(&plan, areas);
}

pub fn run_under_lock(cache: &Mutex<PreparedAreaCache>, resolved: &Resolved, engine: &Engine) {
    let entries = cache.lock().expect("cache mutex poisoned");
    resolved.run(engine, &entries);
}
