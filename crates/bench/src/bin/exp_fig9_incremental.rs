//! Figure 9 — fusion recall as sources are added in recall order, for a
//! representative method of each category.

use bench::{ExpArgs, Table};
use datagen::GeneratedDomain;
use evaluation::{incremental_recall, EvaluationContext};

fn report(domain: &GeneratedDomain, methods: &[&str], step: usize) {
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);
    let series = incremental_recall(&context, methods, step);

    let mut header: Vec<String> = vec!["#sources".to_string()];
    header.extend(series.iter().map(|s| s.method.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Figure 9 ({}): recall as sources are added", domain.config.domain),
        &header_refs,
    );
    let num_points = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..num_points {
        let mut row = vec![format!("{}", series[0].points[i].num_sources)];
        for s in &series {
            row.push(format!("{:.3}", s.points[i].recall));
        }
        table.row(&row);
    }
    table.print();

    for s in &series {
        if let Some(peak) = s.peak() {
            println!(
                "{}: peak recall {:.3} at {} sources, final recall {:.3}",
                s.method,
                peak.recall,
                peak.num_sources,
                s.final_recall()
            );
        }
    }
    println!();
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Figure 9");
    // One representative per category, as in the paper's plots.
    let stock_methods = ["Vote", "Hub", "Cosine", "3-Estimates", "AccuFormatAttr", "AccuCopy"];
    let flight_methods = ["Vote", "PooledInvest", "Cosine", "2-Estimates", "PopAccu", "AccuCopy"];
    report(&stock, &stock_methods, 5);
    report(&flight, &flight_methods, 4);
    println!("Paper: recall peaks at the 5th source for Stock and the 9th for Flight;");
    println!("       adding the remaining sources does not improve (and can hurt) recall.");
}
