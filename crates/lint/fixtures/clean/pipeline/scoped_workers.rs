//! Clean fixture: scoped worker threads inside a `pipeline` path, where
//! thread creation belongs. The workers borrow the caller's inputs.

fn lengths(docs: &[String]) -> Vec<usize> {
    std::thread::scope(|s| {
        let handles: Vec<_> = docs
            .iter()
            .map(|d| {
                std::thread::Builder::new()
                    .name("rbd-worker".to_owned())
                    .spawn_scoped(s, move || d.len())
            })
            .collect();
        handles
            .into_iter()
            .flatten()
            .filter_map(|handle| handle.join().ok())
            .collect()
    })
}
