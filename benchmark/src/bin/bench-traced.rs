//! The traced binary: same code, but every heap allocation is counted so
//! the per-layer budget can report allocations per call.

#[global_allocator]
static ALLOC: telemetry::profile::TallyAlloc = telemetry::profile::TallyAlloc;

fn main() -> std::process::ExitCode {
    cowbird_benchmark::main_with(true)
}
