// rbft_lint CLI: protocol-hygiene static analysis over the repo's sources.
//
// Usage:
//   rbft_lint [options] <file-or-dir>...
//
// Options:
//   --json                   emit findings as a JSON array instead of text
//   --sarif FILE             additionally write findings as SARIF 2.1.0 to
//                            FILE (CI uploads this so findings annotate PRs)
//   --baseline FILE          drop findings whose key appears in FILE
//   --write-baseline FILE    write current findings as a baseline and exit 0
//
// Exit status: 0 no findings, 1 findings reported, 2 usage/IO error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace fs = std::filesystem;

namespace {

[[nodiscard]] bool analyzable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

/// Collects .hpp/.cpp files under each input, sorted so runs are stable
/// regardless of directory-entry order.
[[nodiscard]] bool gather(const std::vector<std::string>& inputs,
                          std::vector<rbft::lint::SourceFile>& files) {
    std::vector<std::string> paths;
    for (const std::string& in : inputs) {
        std::error_code ec;
        if (fs::is_directory(in, ec)) {
            for (const auto& entry : fs::recursive_directory_iterator(in, ec)) {
                if (entry.is_regular_file() && analyzable(entry.path())) {
                    paths.push_back(entry.path().generic_string());
                }
            }
        } else if (fs::is_regular_file(in, ec)) {
            paths.push_back(fs::path(in).generic_string());
        } else {
            std::cerr << "rbft_lint: cannot read '" << in << "'\n";
            return false;
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& p : paths) {
        std::ifstream stream(p, std::ios::binary);
        if (!stream) {
            std::cerr << "rbft_lint: cannot open '" << p << "'\n";
            return false;
        }
        std::ostringstream text;
        text << stream.rdbuf();
        files.push_back({p, text.str()});
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    std::string sarif_path;
    std::string baseline_path;
    std::string write_baseline_path;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "rbft_lint: " << flag << " requires an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--json") {
            json = true;
        } else if (arg == "--sarif") {
            const char* v = value("--sarif");
            if (v == nullptr) return 2;
            sarif_path = v;
        } else if (arg == "--baseline") {
            const char* v = value("--baseline");
            if (v == nullptr) return 2;
            baseline_path = v;
        } else if (arg == "--write-baseline") {
            const char* v = value("--write-baseline");
            if (v == nullptr) return 2;
            write_baseline_path = v;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: rbft_lint [--json] [--sarif FILE] [--baseline FILE]\n"
                         "                 [--write-baseline FILE] <file-or-dir>...\n";
            return 0;
        } else if (!arg.empty() && arg.front() == '-') {
            std::cerr << "rbft_lint: unknown option '" << arg << "'\n";
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        std::cerr << "rbft_lint: no inputs (try --help)\n";
        return 2;
    }

    std::vector<rbft::lint::SourceFile> files;
    if (!gather(inputs, files)) return 2;

    std::vector<rbft::lint::Finding> findings = rbft::lint::analyze(files, {});

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        if (!out) {
            std::cerr << "rbft_lint: cannot write '" << write_baseline_path << "'\n";
            return 2;
        }
        rbft::lint::write_baseline(out, findings);
        std::cout << "rbft_lint: wrote " << findings.size() << " baseline entr"
                  << (findings.size() == 1 ? "y" : "ies") << " to " << write_baseline_path
                  << "\n";
        return 0;
    }

    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::cerr << "rbft_lint: cannot read baseline '" << baseline_path << "'\n";
            return 2;
        }
        findings = rbft::lint::apply_baseline(std::move(findings), rbft::lint::read_baseline(in));
    }

    if (!sarif_path.empty()) {
        std::ofstream out(sarif_path, std::ios::binary);
        if (!out) {
            std::cerr << "rbft_lint: cannot write '" << sarif_path << "'\n";
            return 2;
        }
        out << rbft::lint::to_sarif(findings);
    }

    if (json) {
        std::cout << rbft::lint::to_json(findings);
    } else {
        for (const auto& f : findings) {
            std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
        }
        std::cout << "rbft_lint: " << files.size() << " files, " << findings.size()
                  << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
    }
    return findings.empty() ? 0 : 1;
}
