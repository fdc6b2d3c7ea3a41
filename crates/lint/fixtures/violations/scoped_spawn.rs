//! Violation fixture: scoped threads outside the pipeline crate. Borrowing
//! workers are still workers — `thread::scope` must deny just like
//! `thread::spawn`, or a crate could grow its own worker loop.

fn lengths(docs: &[String]) -> Vec<usize> {
    std::thread::scope(|s| {
        let handles: Vec<_> = docs.iter().map(|d| s.spawn(move || d.len())).collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    })
}
