fn main() {
    for b in hps_suite::benchmarks() {
        let p = b.program().unwrap();
        let stmts: usize = p.iter_funcs().map(|(_, f)| f.stmt_count()).sum();
        println!(
            "{}: {} functions, {} stmts",
            b.name,
            p.functions.len(),
            stmts
        );
    }
}
