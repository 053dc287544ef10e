//! Regenerates **Table II** — statistics of the dataset.
//!
//! Prints the synthetic Beibei-like dataset's statistics next to the
//! paper's production numbers so the proportions can be compared
//! directly (the synthetic set is a ~1/100-scale replica; see the
//! `gb-data` crate doc).

use gb_bench::Workload;

fn main() {
    let scale = Workload::scale_from_args();
    let w = Workload::standard(&scale);
    let s = w.data.stats();

    println!("=== Table II: statistics of the dataset (scale = {scale}) ===\n");
    println!("{s}\n");
    println!("--- paper (Beibei production data) for comparison ---");
    println!("#Users 190,080  #Items 30,782  #Social 748,233");
    println!("#Behaviors 932,896  #Successful 721,605 (77.4%)  #Failed 211,291");
    println!("mean friends/user 7.87   behaviors/user 4.91");
    println!();
    println!(
        "shape check: success ratio {:.3} (paper 0.774), friends/user {:.2} (paper 7.87), behaviors/user {:.2} (paper 4.91)",
        s.success_ratio(),
        s.mean_friends,
        s.behaviors_per_user
    );
}
