/**
 * @file
 * Focused unit tests for the control plane: driver partitioning,
 * sequential kernel queueing, auto-stop behavior, and the command
 * processor's dispatch/report logic.
 */

#include <gtest/gtest.h>

#include "gpu/cp.hh"
#include "gpu/cu.hh"
#include "gpu/driver.hh"
#include "sim/sim.hh"

using namespace akita;
using namespace akita::gpu;

namespace
{

KernelDescriptor
computeKernel(std::uint32_t wgs, std::uint32_t cycles = 8)
{
    KernelDescriptor k;
    k.name = "compute";
    k.numWorkGroups = wgs;
    k.wavefrontsPerWG = 2;
    k.trace = [cycles](std::uint32_t, std::uint32_t) {
        return std::vector<WfOp>{WfOp::compute(cycles)};
    };
    return k;
}

/** Driver + N CPs, each with M pure-compute CUs. */
struct ControlRig
{
    sim::Engine eng;
    Driver driver{&eng, "Driver", sim::Freq::ghz(1)};
    std::vector<std::unique_ptr<CommandProcessor>> cps;
    std::vector<std::unique_ptr<ComputeUnit>> cus;
    sim::DirectConnection driverConn{&eng, "DriverConn",
                                     sim::kNanosecond};
    std::vector<std::unique_ptr<sim::DirectConnection>> ctrlConns;

    ControlRig(std::size_t num_cps, std::size_t cus_per_cp)
    {
        driverConn.plugIn(driver.gpuPort());
        for (std::size_t g = 0; g < num_cps; g++) {
            auto cp = std::make_unique<CommandProcessor>(
                &eng, "CP" + std::to_string(g), sim::Freq::ghz(1),
                CommandProcessor::Config{});
            driverConn.plugIn(cp->toDriverPort());
            driver.addGpu(cp->toDriverPort());

            auto conn = std::make_unique<sim::DirectConnection>(
                &eng, "Ctrl" + std::to_string(g), sim::kNanosecond);
            conn->plugIn(cp->toCUsPort());
            for (std::size_t c = 0; c < cus_per_cp; c++) {
                auto cu = std::make_unique<ComputeUnit>(
                    &eng,
                    "CU" + std::to_string(g) + "_" + std::to_string(c),
                    sim::Freq::ghz(1), ComputeUnit::Config{});
                conn->plugIn(cu->ctrlPort());
                cp->addCU(cu->ctrlPort());
                cus.push_back(std::move(cu));
            }
            ctrlConns.push_back(std::move(conn));
            cps.push_back(std::move(cp));
        }
    }
};

} // namespace

TEST(DriverTest, PartitionsWorkGroupsEvenlyWithRemainder)
{
    ControlRig rig(3, 1);
    KernelDescriptor k = computeKernel(10); // 10 = 4 + 3 + 3.
    rig.driver.launchKernel(&k);
    rig.eng.run();

    EXPECT_EQ(rig.driver.kernelsCompleted(), 1u);
    std::vector<std::uint64_t> perCp;
    for (const auto &cu : rig.cus)
        perCp.push_back(cu->completedWGs());
    std::sort(perCp.begin(), perCp.end());
    EXPECT_EQ(perCp, (std::vector<std::uint64_t>{3, 3, 4}));
}

TEST(DriverTest, SequentialKernelsRunInOrder)
{
    ControlRig rig(2, 2);
    KernelDescriptor k1 = computeKernel(8);
    KernelDescriptor k2 = computeKernel(4);
    KernelDescriptor k3 = computeKernel(2);
    rig.driver.launchKernel(&k1);
    rig.driver.launchKernel(&k2);
    rig.driver.launchKernel(&k3);
    rig.eng.run();
    EXPECT_EQ(rig.driver.kernelsCompleted(), 3u);
    EXPECT_TRUE(rig.driver.allKernelsDone());

    std::uint64_t total = 0;
    for (const auto &cu : rig.cus)
        total += cu->completedWGs();
    EXPECT_EQ(total, 14u);
}

TEST(DriverTest, AutoStopHaltsEngineOnCompletion)
{
    ControlRig rig(1, 1);
    rig.eng.setConcurrentAccess(true);
    rig.eng.setWaitWhenEmpty(true); // Monitor-attached mode.
    KernelDescriptor k = computeKernel(4);
    rig.driver.launchKernel(&k);
    // With wait-when-empty, only the driver's auto-stop lets run()
    // return; this must not hang.
    rig.eng.run();
    EXPECT_TRUE(rig.driver.allKernelsDone());
}

TEST(DriverTest, AutoStopDisabledKeepsEngineAlive)
{
    ControlRig rig(1, 1);
    rig.driver.setAutoStop(false);
    KernelDescriptor k = computeKernel(2);
    rig.driver.launchKernel(&k);
    // Drain mode (no wait-when-empty): run returns when the queue is
    // naturally empty, with the kernel completed but no stop issued.
    EXPECT_EQ(rig.eng.run(), sim::RunResult::Drained);
    EXPECT_TRUE(rig.driver.allKernelsDone());
}

TEST(DriverTest, LaunchDuringRunExecutesAfterCurrent)
{
    ControlRig rig(1, 2);
    KernelDescriptor k1 = computeKernel(4, 50);
    KernelDescriptor k2 = computeKernel(4, 1);
    rig.driver.launchKernel(&k1);
    // Schedule a mid-run launch from inside the simulation (the only
    // thread-safe way while the engine runs).
    rig.eng.scheduleAt(5 * sim::kNanosecond, "late-launch", [&]() {
        rig.driver.launchKernel(&k2);
    });
    rig.eng.run();
    EXPECT_EQ(rig.driver.kernelsCompleted(), 2u);
}

TEST(DriverTest, FieldsExposeQueueState)
{
    ControlRig rig(1, 1);
    KernelDescriptor k1 = computeKernel(2);
    KernelDescriptor k2 = computeKernel(2);
    rig.driver.launchKernel(&k1);
    rig.driver.launchKernel(&k2);
    EXPECT_EQ(rig.driver.fields()
                  .find("queued_kernels")
                  ->getter()
                  .numeric(),
              2.0);
    rig.eng.run();
    EXPECT_EQ(rig.driver.fields()
                  .find("kernels_completed")
                  ->getter()
                  .intVal(),
              2);
}

TEST(CommandProcessorTest, RoundRobinUsesAllCUs)
{
    ControlRig rig(1, 4);
    KernelDescriptor k = computeKernel(16);
    rig.driver.launchKernel(&k);
    rig.eng.run();
    for (const auto &cu : rig.cus)
        EXPECT_EQ(cu->completedWGs(), 4u) << cu->name();
}

TEST(CommandProcessorTest, MoreWgsThanSlotsStreams)
{
    // 1 CU with 40 wavefront slots = 20 concurrent 2-wavefront WGs;
    // 200 WGs must stream through without loss.
    ControlRig rig(1, 1);
    KernelDescriptor k = computeKernel(200);
    rig.driver.launchKernel(&k);
    rig.eng.run();
    EXPECT_EQ(rig.cus[0]->completedWGs(), 200u);
    EXPECT_EQ(rig.cps[0]->fields()
                  .find("completed_wgs")
                  ->getter()
                  .intVal(),
              200);
}

TEST(CommandProcessorTest, ReportThrottlingStillReachesFinalCounts)
{
    // Even with a large report interval, the tail flush must deliver
    // exact final counts.
    sim::Engine eng;
    Driver driver(&eng, "Driver", sim::Freq::ghz(1));
    CommandProcessor::Config cpCfg;
    cpCfg.reportInterval = 1000000; // Effectively "never" mid-run.
    auto cp = std::make_unique<CommandProcessor>(
        &eng, "CP", sim::Freq::ghz(1), cpCfg);
    sim::DirectConnection dconn(&eng, "DConn", sim::kNanosecond);
    dconn.plugIn(driver.gpuPort());
    dconn.plugIn(cp->toDriverPort());
    driver.addGpu(cp->toDriverPort());

    sim::DirectConnection ctrl(&eng, "Ctrl", sim::kNanosecond);
    ctrl.plugIn(cp->toCUsPort());
    ComputeUnit cu(&eng, "CU", sim::Freq::ghz(1), {});
    ctrl.plugIn(cu.ctrlPort());
    cp->addCU(cu.ctrlPort());

    class Counter : public KernelProgressListener
    {
      public:
        void kernelStarted(std::uint64_t, const std::string &,
                           std::uint64_t) override
        {
        }

        void
        kernelProgress(std::uint64_t, std::uint64_t completed,
                       std::uint64_t) override
        {
            lastCompleted = completed;
        }

        void kernelFinished(std::uint64_t) override { finished = true; }

        std::uint64_t lastCompleted = 0;
        bool finished = false;
    } listener;
    driver.setProgressListener(&listener);

    KernelDescriptor k = computeKernel(12);
    driver.launchKernel(&k);
    eng.run();
    EXPECT_TRUE(listener.finished);
    EXPECT_EQ(listener.lastCompleted, 12u);
}
