// Status: the error vocabulary every fallible layer speaks. The code
// names double as metric labels ("query.errors.<CODE>"), so their
// exact spelling is a contract, not a cosmetic detail.
#include <set>
#include <string>
#include <utility>

#include "common/status.h"
#include "gtest/gtest.h"

namespace dsks {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_EQ(Status::IOError("disk on fire").message(), "disk on fire");
  EXPECT_FALSE(Status::IOError("x").ok());
  // The predicates are mutually exclusive.
  EXPECT_FALSE(Status::IOError("x").IsResourceExhausted());
  EXPECT_FALSE(Status::ResourceExhausted("x").IsIOError());
}

TEST(StatusTest, CodeNamesAreStableAndDistinct) {
  EXPECT_STREQ(Status::CodeName(Status::Code::kOk), "OK");
  EXPECT_STREQ(Status::CodeName(Status::Code::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(Status::CodeName(Status::Code::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(Status::CodeName(Status::Code::kCorruption), "CORRUPTION");
  EXPECT_STREQ(Status::CodeName(Status::Code::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(Status::CodeName(Status::Code::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(Status::CodeName(Status::Code::kIOError), "IO_ERROR");
  // kNumCodes really covers the enum: every code has a unique name, so a
  // per-code counter array indexed by static_cast<size_t>(code) is safe.
  std::set<std::string> names;
  for (size_t c = 0; c < Status::kNumCodes; ++c) {
    names.insert(Status::CodeName(static_cast<Status::Code>(c)));
  }
  EXPECT_EQ(names.size(), Status::kNumCodes);
}

TEST(StatusTest, CodeNameMatchesInstanceHelper) {
  EXPECT_STREQ(Status::Ok().code_name(), "OK");
  EXPECT_STREQ(Status::Corruption("x").code_name(), "CORRUPTION");
}

TEST(StatusTest, ToStringCombinesCodeAndMessage) {
  EXPECT_EQ(Status::IOError("fault injected").ToString(),
            "IO_ERROR: fault injected");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(StatusTest, CopyAndMovePreserveCodeAndMessage) {
  // OK is a null rep internally; copies of an error must deep-clone so
  // the original stays valid (e.g. a sticky iterator status read after
  // the caller copied it into a query record).
  const Status err = Status::Corruption("page 7");
  Status copy = err;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "page 7");
  EXPECT_TRUE(err.IsCorruption());
  EXPECT_EQ(err.message(), "page 7");

  Status moved = std::move(copy);
  EXPECT_TRUE(moved.IsCorruption());
  EXPECT_EQ(moved.message(), "page 7");

  Status target;
  target = moved;  // copy-assign error over OK
  EXPECT_TRUE(target.IsCorruption());
  target = Status::Ok();  // assign OK over error
  EXPECT_TRUE(target.ok());

  // Self-assignment must not clear the rep.
  Status self = Status::IOError("keep me");
  Status& alias = self;
  self = alias;
  EXPECT_TRUE(self.IsIOError());
  EXPECT_EQ(self.message(), "keep me");
}

Status FailsAtStep(int failing_step, int* reached) {
  for (int step = 0; step < 3; ++step) {
    *reached = step;
    DSKS_RETURN_IF_ERROR(step == failing_step
                             ? Status::IOError("injected")
                             : Status::Ok());
  }
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagatesAndStops) {
  int reached = -1;
  EXPECT_TRUE(FailsAtStep(-1, &reached).ok());
  EXPECT_EQ(reached, 2);
  const Status s = FailsAtStep(1, &reached);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "injected");
  EXPECT_EQ(reached, 1);
}

}  // namespace
}  // namespace dsks
