//! The untraced binary: system allocator, nothing counted.

fn main() -> std::process::ExitCode {
    cowbird_benchmark::main_with(false)
}
