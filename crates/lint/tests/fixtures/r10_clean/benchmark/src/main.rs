// Fixture: the benchmark.

fn main() {
    fedsz::used_only_by_benchmark();
}
