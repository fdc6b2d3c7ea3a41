//! Per-heuristic cost on a fixed document view — the empirical counterpart
//! of §4's cost analysis (HT/IT "negligible"; SD/RP/OM bounded by `O(n)`;
//! OM's regex pass is the most expensive component, which is why the paper
//! amortizes it into the recognizer).

use rbd_bench::{black_box, Harness};
use rbd_corpus::{generate_document, sites, Domain};
use rbd_heuristics::{
    ht::HighestCount, it::IdentifiableTags, om::OntologyMatching, rp::RepeatingPattern,
    sd::StandardDeviation, Heuristic, SubtreeView,
};
use rbd_ontology::domains;
use rbd_tagtree::{TagTree, TagTreeBuilder};

fn fixture() -> (TagTree, String) {
    let style = &sites::initial_sites(Domain::Obituaries)[0];
    // Concatenate several generated pages' record areas into one large one.
    let mut html = String::new();
    for i in 0..20 {
        let doc = generate_document(style, Domain::Obituaries, i, 1998);
        if html.is_empty() {
            html = doc.html[..doc.html.rfind("</td>").expect("wrapper")].to_owned();
        } else {
            let start = doc.html.find("<hr>").expect("separator");
            let end = doc.html.rfind("</td>").expect("wrapper");
            html.push_str(&doc.html[start..end]);
        }
    }
    html.push_str("</td></tr></table></body></html>");
    let tree = TagTreeBuilder::default().build(&html);
    (tree, html)
}

fn bench_individual_heuristics(h: &mut Harness) {
    let (tree, _html) = fixture();
    let view = SubtreeView::from_tree(&tree, 0.10);
    let om = OntologyMatching::new(domains::obituaries()).expect("compiles");

    let mut group = h.group("heuristics");
    group.bench_function("HT", |b| {
        b.iter(|| black_box(HighestCount.rank(black_box(&view))));
    });
    let it = IdentifiableTags;
    group.bench_function("IT", |b| {
        b.iter(|| black_box(it.rank(black_box(&view))));
    });
    group.bench_function("SD", |b| {
        b.iter(|| black_box(StandardDeviation.rank(black_box(&view))));
    });
    let rp = RepeatingPattern::default();
    group.bench_function("RP", |b| {
        b.iter(|| black_box(rp.rank(black_box(&view))));
    });
    group.sample_size(20);
    group.bench_function("OM", |b| b.iter(|| black_box(om.rank(black_box(&view)))));
    group.finish();
}

fn bench_view_construction(h: &mut Harness) {
    let (tree, _html) = fixture();
    let mut group = h.group("heuristics");
    group.bench_function("subtree_view", |b| {
        b.iter(|| black_box(SubtreeView::from_tree(black_box(&tree), 0.10)));
    });
    group.finish();
}

fn bench_pattern_engine(h: &mut Harness) {
    // The OM/recognizer substrate: regex matching throughput.
    let (tree, html) = fixture();
    let text = rbd_html::tokenize(&html).plain_text();
    let kw = rbd_pattern::Pattern::case_insensitive("died on|passed away on|passed away")
        .expect("compiles");
    let date = rbd_pattern::Pattern::new(r"[A-Z][a-z]+ [0-9]{1,2}, [0-9]{4}").expect("compiles");

    let mut group = h.group("pattern");
    group.throughput_bytes(text.len() as u64);
    group.bench_function("keyword_count", |b| {
        b.iter(|| black_box(kw.count_matches(black_box(&text))));
    });
    group.bench_function("date_count", |b| {
        b.iter(|| black_box(date.count_matches(black_box(&text))));
    });
    // What OM scans: every rule it counts, over the view's text.
    let view = SubtreeView::from_tree(&tree, 0.10);
    let om = OntologyMatching::new(domains::obituaries()).expect("compiles");
    let rules: Vec<_> = om.counted_rules().collect();
    assert_eq!(rules.len(), 3, "the obituary ontology's OM rules");
    group.throughput_bytes(view.text().len() as u64);
    group.bench_function("om_rules_count", |b| {
        b.iter(|| {
            let text = black_box(view.text());
            black_box(rules.iter().map(|p| p.count_matches(text)).sum::<usize>())
        });
    });
    group.finish();
}

fn main() {
    let mut h = Harness::new("heuristics");
    bench_individual_heuristics(&mut h);
    bench_view_construction(&mut h);
    bench_pattern_engine(&mut h);
    h.finish();
}
