#ifndef PARTIX_BENCH_BENCH_OUT_H_
#define PARTIX_BENCH_BENCH_OUT_H_

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

namespace partix::bench {

/// Benches write their BENCH_*.json/.prom artifacts under an untracked
/// ./bench-out/ directory (gitignored) instead of littering the working
/// directory. Returns "bench-out/<filename>", creating the directory on
/// first use; falls back to the bare filename when the directory cannot
/// be created (read-only CWD).
inline std::string BenchOutPath(const std::string& filename) {
  static const bool created =
      mkdir("bench-out", 0775) == 0 || errno == EEXIST;
  if (!created) return filename;
  return "bench-out/" + filename;
}

/// Writes `body` to BenchOutPath(filename) and reports the path written.
/// Returns false (after printing to stderr) when the file cannot be
/// opened.
inline bool WriteBenchFile(const std::string& filename,
                           const std::string& body) {
  const std::string path = BenchOutPath(filename);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// The `p`-th percentile (p in [0, 1]) of `samples`, linearly
/// interpolated between the two nearest ranks; 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace partix::bench

#endif  // PARTIX_BENCH_BENCH_OUT_H_
