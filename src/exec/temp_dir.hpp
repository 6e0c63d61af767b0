#ifndef BACO_EXEC_TEMP_DIR_HPP_
#define BACO_EXEC_TEMP_DIR_HPP_

/**
 * @file
 * A scoped temporary directory for tests, benches and tools that write
 * checkpoints, logs or traces: created fresh with mkdtemp(3), removed with
 * everything in it when the object goes out of scope, so a run leaves
 * nothing behind, also when an assertion returns early or an exception
 * unwinds.
 */

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace baco {

class ScopedTempDir {
 public:
  /** Create `parent`/`prefix`XXXXXX. The default parent is the system
   *  temporary directory (TMPDIR when set). */
  explicit ScopedTempDir(
      const std::string& prefix,
      const std::filesystem::path& parent =
          std::filesystem::temp_directory_path())
      : path_((parent / (prefix + "XXXXXX")).string())
  {
      if (!::mkdtemp(path_.data()))
          throw std::runtime_error("mkdtemp failed for " + path_);
  }

  ~ScopedTempDir()
  {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /** The path of `name` inside the directory. */
  std::string file(const std::string& name) const
  {
      return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace baco

#endif  // BACO_EXEC_TEMP_DIR_HPP_
