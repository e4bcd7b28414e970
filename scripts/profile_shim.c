/*
 * A sampling profiler as an LD_PRELOAD shim, for machines without perf.
 * scripts/profile.sh builds and loads it; see that script for use.
 *
 * On load it arms ITIMER_PROF, which counts the CPU time of this
 * process only (all its threads, user and system), and records the
 * interrupted instruction pointer of every SIGPROF in a fixed buffer.
 * At exit it writes $PROFILE_OUT/<pid>.pcs (the samples, native-endian
 * u64s) and $PROFILE_OUT/<pid>.maps (a copy of /proc/self/maps, so the
 * report can take each mapping's ASLR base off). Every process that
 * inherits LD_PRELOAD writes its own pair; one that leaves by _exit or
 * a fatal signal writes nothing.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)
#define PERIOD_US 1000

static uint64_t samples[MAX_SAMPLES];
static volatile uint32_t taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    uint32_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uint64_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static int create(const char *dir, const char *suffix) {
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.%s", dir, (int)getpid(), suffix);
    return open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

static void write_all(int fd, const void *buf, size_t len) {
    const char *p = buf;
    while (len > 0) {
        ssize_t n = write(fd, p, len);
        if (n <= 0)
            return;
        p += n;
        len -= (size_t)n;
    }
}

__attribute__((destructor)) static void profile_stop(void) {
    struct itimerval off = {0};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *dir = getenv("PROFILE_OUT");
    if (!dir)
        return;
    uint32_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    int fd = create(dir, "pcs");
    if (fd >= 0) {
        write_all(fd, samples, (size_t)n * sizeof samples[0]);
        close(fd);
    }
    int in = open("/proc/self/maps", O_RDONLY);
    fd = create(dir, "maps");
    if (in >= 0 && fd >= 0) {
        char buf[65536];
        ssize_t got;
        while ((got = read(in, buf, sizeof buf)) > 0)
            write_all(fd, buf, (size_t)got);
    }
    if (in >= 0)
        close(in);
    if (fd >= 0)
        close(fd);
}

__attribute__((constructor)) static void profile_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}
