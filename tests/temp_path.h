// Per-test scratch file paths. ctest runs every gtest case as its own
// process, in parallel under -j, so a fixed file name under TempDir() is
// shared by concurrently running cases; a name derived from the running
// test's suite and name is not.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace jitgc::testing_util {

/// `TempDir()/jitgc_<suite>_<test>_<suffix>`, unique to the running test.
inline std::string unique_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("jitgc_") + info->test_suite_name() + "_" + info->name();
  // Parameterized tests carry '/' in both parts.
  std::replace(name.begin(), name.end(), '/', '_');
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name + "_" + suffix;
}

}  // namespace jitgc::testing_util
