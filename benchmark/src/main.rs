fn main() -> std::process::ExitCode {
    ipactive_benchmark::cli::main()
}
