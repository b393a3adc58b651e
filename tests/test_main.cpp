// Entry point of every test binary.  Death tests re-execute the binary
// ("threadsafe" style) instead of forking it: a fork of a process whose
// OpenMP pool is alive can hang in the child.  The style is set at run time,
// before the command line is parsed, so --gtest_death_test_style still
// overrides it.
#include <gtest/gtest.h>

int main(int argc, char** argv) {
#if defined(GTEST_FLAG_SET)
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
